#include "obs/trace_tool.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <ostream>
#include <set>

namespace cid::obs {

namespace {

struct Aggregate {
  std::uint64_t spans = 0;
  double time_us = 0.0;
  std::uint64_t bytes = 0;
  std::uint64_t messages = 0;

  void absorb(const TraceSpan& span) {
    ++spans;
    time_us += span.dur_us;
    bytes += span.bytes;
    messages += span.messages;
  }

  bool operator==(const Aggregate&) const = default;
};

using ByCat = std::map<std::string, Aggregate>;
using BySite = std::map<std::pair<std::string, std::string>, Aggregate>;

ByCat aggregate_by_cat(const TraceFile& trace) {
  ByCat out;
  for (const TraceSpan& span : trace.spans) out[span.cat].absorb(span);
  return out;
}

BySite aggregate_by_site(const TraceFile& trace) {
  BySite out;
  for (const TraceSpan& span : trace.spans) {
    out[{span.cat, span.name}].absorb(span);
  }
  return out;
}

std::string fixed(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.3f", value);
  return buffer;
}

void print_row(std::ostream& out, const std::string& label,
               const Aggregate& agg) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "  %-52s %8llu %12s %12llu %9llu\n",
                label.size() > 52
                    ? ("…" + label.substr(label.size() - 49)).c_str()
                    : label.c_str(),
                static_cast<unsigned long long>(agg.spans),
                fixed(agg.time_us).c_str(),
                static_cast<unsigned long long>(agg.bytes),
                static_cast<unsigned long long>(agg.messages));
  out << buffer;
}

void print_header(std::ostream& out, const char* label) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer), "  %-52s %8s %12s %12s %9s\n", label,
                "spans", "time(us)", "bytes", "messages");
  out << buffer;
}

}  // namespace

void summarize_trace(const TraceFile& trace, std::ostream& out) {
  std::set<int> ranks;
  double first_ts = 0.0;
  double last_end = 0.0;
  Aggregate total;
  Aggregate regions;
  for (const TraceSpan& span : trace.spans) {
    ranks.insert(span.rank);
    if (total.spans == 0 || span.ts_us < first_ts) first_ts = span.ts_us;
    last_end = std::max(last_end, span.ts_us + span.dur_us);
    total.absorb(span);
    if (span.cat == "comm_parameters") regions.absorb(span);
  }

  // A region's span repeats the bytes of the transfers it encloses.
  out << "trace: " << total.spans << " spans on " << ranks.size()
      << " rank(s), virtual window " << fixed(first_ts) << " .. "
      << fixed(last_end) << " us, " << total.bytes - regions.bytes
      << " bytes in " << total.messages - regions.messages
      << " message(s)\n";

  out << "\nper phase:\n";
  print_header(out, "phase");
  for (const auto& [cat, agg] : aggregate_by_cat(trace)) {
    print_row(out, cat.empty() ? "(uncategorized)" : cat, agg);
  }

  out << "\nper site (region/directive, mean latency in parentheses):\n";
  print_header(out, "site");
  for (const auto& [key, agg] : aggregate_by_site(trace)) {
    const auto& [cat, name] = key;
    const double mean =
        agg.spans == 0 ? 0.0 : agg.time_us / static_cast<double>(agg.spans);
    print_row(out, cat + " " + name + " (" + fixed(mean) + ")", agg);
  }

  if (!trace.counters.empty()) {
    out << "\nembedded counters:\n";
    for (const auto& counter : trace.counters) {
      out << "  " << counter.metric;
      if (!counter.site.empty()) out << " @ " << counter.site;
      out << " [rank " << counter.rank << "] = " << counter.value << "\n";
    }
  }
  if (!trace.histograms.empty()) {
    out << "\nembedded histograms:\n";
    for (const auto& hist : trace.histograms) {
      out << "  " << hist.metric;
      if (!hist.site.empty()) out << " @ " << hist.site;
      out << " [rank " << hist.rank << "] n=" << hist.count
          << " sum=" << hist.sum << " min=" << hist.min
          << " max=" << hist.max << "\n";
    }
  }
}

bool diff_traces(const TraceFile& a, const TraceFile& b, std::ostream& out,
                 bool semantic) {
  const BySite left = aggregate_by_site(a);
  const BySite right = aggregate_by_site(b);

  std::set<std::pair<std::string, std::string>> keys;
  for (const auto& [key, agg] : left) keys.insert(key);
  for (const auto& [key, agg] : right) keys.insert(key);

  bool identical = true;
  for (const auto& key : keys) {
    const auto l = left.find(key);
    const auto r = right.find(key);
    Aggregate la = l == left.end() ? Aggregate{} : l->second;
    Aggregate ra = r == right.end() ? Aggregate{} : r->second;
    if (semantic) {
      // Timing is allowed to differ; only what moved where must agree.
      la.time_us = 0.0;
      ra.time_us = 0.0;
    }
    if (la == ra) continue;
    if (identical) {
      out << "differing sites (A vs B):\n";
      print_header(out, "site");
    }
    identical = false;
    print_row(out, "A " + key.first + " " + key.second, la);
    print_row(out, "B " + key.first + " " + key.second, ra);
  }
  if (identical) {
    out << "traces are " << (semantic ? "semantically " : "")
        << "equivalent: " << keys.size() << " aggregated site(s) match\n";
  } else {
    out << "A: " << a.spans.size() << " spans, B: " << b.spans.size()
        << " spans\n";
  }
  return identical;
}

void export_csv(const TraceFile& trace, std::ostream& out) {
  out << "rank,cat,name,ts_us,dur_us,bytes,messages\n";
  for (const TraceSpan& span : trace.spans) {
    std::string name = span.name;
    std::replace(name.begin(), name.end(), ',', ';');
    std::string cat = span.cat;
    std::replace(cat.begin(), cat.end(), ',', ';');
    out << span.rank << ',' << cat << ',' << name << ',' << fixed(span.ts_us)
        << ',' << fixed(span.dur_us) << ',' << span.bytes << ','
        << span.messages << "\n";
  }
}

}  // namespace cid::obs
