// Seeded deferred-synchronization race for `cidt explore` (docs/EXPLORE.md).
//
// The first region defers its consolidated sync with
// place_sync(END_ADJ_PARAM_REGIONS), so rank 0's wildcard receive into `b`
// is still in flight when the next region runs. There rank 0 sends to
// itself under another wildcard receive, and both receives land together
// at the end of the second region. Rank 0 waits for `b` first, and two
// messages from *different* directives can match it: rank 1's, and rank
// 0's own. `cidt explore --nprocs 3` reports CID-E102 with a witness
// schedule that replays. With END_PARAM_REGION on the first region, rank 0
// would complete `b` before the second region posts anything, and there
// would be no race. Both directives name a symbolic sender (`k`), so the
// static analyzer skips them: `cidt check` reports the skip note and
// nothing else.
int a[8];
int b[8];
int c[8];
int d[8];
int k;  // runtime-chosen peer: opaque to the static analyzer

void produce();
void reflect();

void step() {
#pragma comm_parameters count(4) place_sync(END_ADJ_PARAM_REGIONS)
  {
#pragma comm_p2p sbuf(a) rbuf(b) receiver(0) sender(k) \
    sendwhen(rank == 1) receivewhen(rank == 0)
    { produce(); }
  }
#pragma comm_parameters count(4)
  {
#pragma comm_p2p sbuf(c) rbuf(d) receiver(0) sender(k) \
    sendwhen(rank == 0) receivewhen(rank == 0)
    { reflect(); }
  }
}
