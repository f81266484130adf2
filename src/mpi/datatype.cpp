#include "mpi/datatype.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#include "rt/arena.hpp"

namespace cid::mpi {

std::size_t basic_type_size(BasicType type) noexcept {
  switch (type) {
    case BasicType::Char:
    case BasicType::SignedChar:
    case BasicType::UnsignedChar:
    case BasicType::Byte:
    case BasicType::Packed:
      return 1;
    case BasicType::Short:
      return sizeof(short);
    case BasicType::Int:
    case BasicType::UnsignedInt:
      return sizeof(int);
    case BasicType::Long:
    case BasicType::UnsignedLong:
      return sizeof(long);
    case BasicType::LongLong:
      return sizeof(long long);
    case BasicType::Float:
      return sizeof(float);
    case BasicType::Double:
      return sizeof(double);
    case BasicType::LongDouble:
      return sizeof(long double);
  }
  return 1;
}

std::string_view basic_type_name(BasicType type) noexcept {
  switch (type) {
    case BasicType::Char: return "MPI_CHAR";
    case BasicType::SignedChar: return "MPI_SIGNED_CHAR";
    case BasicType::UnsignedChar: return "MPI_UNSIGNED_CHAR";
    case BasicType::Short: return "MPI_SHORT";
    case BasicType::Int: return "MPI_INT";
    case BasicType::UnsignedInt: return "MPI_UNSIGNED";
    case BasicType::Long: return "MPI_LONG";
    case BasicType::UnsignedLong: return "MPI_UNSIGNED_LONG";
    case BasicType::LongLong: return "MPI_LONG_LONG";
    case BasicType::Float: return "MPI_FLOAT";
    case BasicType::Double: return "MPI_DOUBLE";
    case BasicType::LongDouble: return "MPI_LONG_DOUBLE";
    case BasicType::Byte: return "MPI_BYTE";
    case BasicType::Packed: return "MPI_PACKED";
  }
  return "MPI_UNKNOWN";
}

struct Datatype::Impl {
  bool is_basic = true;
  BasicType basic = BasicType::Byte;
  std::vector<TypeField> fields;
  std::size_t extent = 1;
  std::size_t payload = 1;
  bool contiguous = true;
  bool committed = false;
  /// Compiled once at creation; every gather/scatter walks these runs.
  std::vector<PackRun> plan;
  /// Constant-stride plan shape (e.g. a column of doubles out of a row-major
  /// matrix): every run is `run_bytes` long and starts `run_stride` after
  /// the previous. Detected once here so gather/scatter can use a tight
  /// fixed-size-copy loop instead of iterating PackRun records.
  bool uniform_runs = false;
  std::size_t run_bytes = 0;
  std::size_t run_stride = 0;
  std::size_t run_first = 0;  ///< offset of the first run in the element
};

namespace {

/// Coalesce declaration-order fields into maximal contiguous memcpy runs.
/// Only declaration-adjacent fields may merge — the wire stores fields in
/// declaration order, so merging any other pair would reorder wire bytes.
std::vector<PackRun> compile_pack_plan(const std::vector<TypeField>& fields) {
  std::vector<PackRun> plan;
  for (const auto& field : fields) {
    const std::size_t bytes = field.block_length * basic_type_size(field.type);
    if (!plan.empty() &&
        plan.back().offset + plan.back().bytes == field.displacement) {
      plan.back().bytes += bytes;
    } else {
      plan.push_back({field.displacement, bytes});
    }
  }
  return plan;
}

/// Detected constant-stride shape of a compiled plan.
struct PlanShape {
  bool uniform = false;
  std::size_t bytes = 0;
  std::size_t stride = 0;
  std::size_t first = 0;
};

/// Detect the constant-stride shape: >= 2 runs, all the same length, offsets
/// in arithmetic progression. Offsets ascend by construction (declaration
/// order with ascending displacements is enforced at creation).
PlanShape analyze_plan_shape(const std::vector<PackRun>& plan) {
  PlanShape shape;
  if (plan.size() < 2) return shape;
  const std::size_t bytes = plan[0].bytes;
  const std::size_t stride = plan[1].offset - plan[0].offset;
  for (std::size_t i = 1; i < plan.size(); ++i) {
    if (plan[i].bytes != bytes ||
        plan[i].offset != plan[0].offset + i * stride) {
      return shape;
    }
  }
  shape.uniform = true;
  shape.bytes = bytes;
  shape.stride = stride;
  shape.first = plan[0].offset;
  return shape;
}

/// Tight strided copy loops. The fixed-size variants compile to single
/// loads/stores (no memcpy call, no per-run PackRun fetch), which is where
/// the strided-pack win comes from.
template <std::size_t kBytes>
void copy_runs_fixed(std::byte* wire, const std::byte* element,
                     std::size_t runs, std::size_t stride) {
  for (std::size_t r = 0; r < runs; ++r) {
    std::memcpy(wire, element, kBytes);
    wire += kBytes;
    element += stride;
  }
}

template <std::size_t kBytes>
void scatter_runs_fixed(std::byte* element, const std::byte* wire,
                        std::size_t runs, std::size_t stride) {
  for (std::size_t r = 0; r < runs; ++r) {
    std::memcpy(element, wire, kBytes);
    wire += kBytes;
    element += stride;
  }
}

void copy_runs(std::byte* wire, const std::byte* element, std::size_t runs,
               std::size_t bytes, std::size_t stride) {
  switch (bytes) {
    case 4: copy_runs_fixed<4>(wire, element, runs, stride); return;
    case 8: copy_runs_fixed<8>(wire, element, runs, stride); return;
    case 16: copy_runs_fixed<16>(wire, element, runs, stride); return;
    default:
      for (std::size_t r = 0; r < runs; ++r) {
        std::memcpy(wire, element, bytes);
        wire += bytes;
        element += stride;
      }
  }
}

void scatter_runs(std::byte* element, const std::byte* wire, std::size_t runs,
                  std::size_t bytes, std::size_t stride) {
  switch (bytes) {
    case 4: scatter_runs_fixed<4>(element, wire, runs, stride); return;
    case 8: scatter_runs_fixed<8>(element, wire, runs, stride); return;
    case 16: scatter_runs_fixed<16>(element, wire, runs, stride); return;
    default:
      for (std::size_t r = 0; r < runs; ++r) {
        std::memcpy(element, wire, bytes);
        wire += bytes;
        element += stride;
      }
  }
}

}  // namespace

Datatype Datatype::basic(BasicType type) {
  // One shared immutable Impl per basic type, built on first use; readers
  // take no lock after that.
  static const auto impls = [] {
    std::array<std::shared_ptr<Impl>, 14> all;
    for (std::size_t index = 0; index < all.size(); ++index) {
      auto impl = std::make_shared<Impl>();
      impl->is_basic = true;
      impl->basic = static_cast<BasicType>(index);
      impl->extent = basic_type_size(impl->basic);
      impl->payload = impl->extent;
      impl->contiguous = true;
      impl->committed = true;
      impl->plan = {{0, impl->payload}};
      all[index] = std::move(impl);
    }
    return all;
  }();
  return Datatype(impls[static_cast<std::size_t>(type)]);
}

Result<Datatype> Datatype::create_struct(std::vector<TypeField> fields,
                                         std::size_t extent) {
  if (fields.empty()) {
    return Status(ErrorCode::TypeError,
                  "derived struct type needs at least one field");
  }
  if (extent == 0) {
    return Status(ErrorCode::TypeError, "derived struct extent cannot be 0");
  }
  std::size_t payload = 0;
  for (const auto& field : fields) {
    if (field.block_length == 0) {
      return Status(ErrorCode::TypeError, "field block_length cannot be 0");
    }
    if (field.type == BasicType::Packed) {
      return Status(ErrorCode::TypeError,
                    "MPI_PACKED cannot appear inside a struct type");
    }
    const std::size_t bytes = field.block_length * basic_type_size(field.type);
    if (field.displacement + bytes > extent) {
      return Status(ErrorCode::TypeError,
                    "field extends past the struct extent");
    }
    payload += bytes;
  }
  // Reject overlapping fields: sort a copy by displacement and check.
  std::vector<TypeField> sorted = fields;
  std::sort(sorted.begin(), sorted.end(),
            [](const TypeField& a, const TypeField& b) {
              return a.displacement < b.displacement;
            });
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    const auto& prev = sorted[i - 1];
    const std::size_t prev_end =
        prev.displacement + prev.block_length * basic_type_size(prev.type);
    if (sorted[i].displacement < prev_end) {
      return Status(ErrorCode::TypeError, "struct fields overlap");
    }
  }
  auto impl = std::make_shared<Impl>();
  impl->is_basic = false;
  impl->fields = std::move(fields);
  impl->extent = extent;
  impl->payload = payload;
  // Contiguous = payload fills the extent starting at 0 with no holes.
  impl->contiguous = (payload == extent);
  impl->committed = false;
  impl->plan = impl->contiguous ? std::vector<PackRun>{{0, payload}}
                                : compile_pack_plan(impl->fields);
  const PlanShape shape = analyze_plan_shape(impl->plan);
  impl->uniform_runs = shape.uniform;
  impl->run_bytes = shape.bytes;
  impl->run_stride = shape.stride;
  impl->run_first = shape.first;
  return Datatype(std::move(impl));
}

void Datatype::commit() noexcept { impl_->committed = true; }
bool Datatype::committed() const noexcept { return impl_->committed; }
bool Datatype::is_basic() const noexcept { return impl_->is_basic; }

BasicType Datatype::basic_type() const {
  CID_REQUIRE(impl_->is_basic, ErrorCode::InvalidArgument,
              "basic_type() on a derived datatype");
  return impl_->basic;
}

std::size_t Datatype::extent() const noexcept { return impl_->extent; }
std::size_t Datatype::payload_size() const noexcept { return impl_->payload; }
bool Datatype::is_contiguous() const noexcept { return impl_->contiguous; }
std::size_t Datatype::field_count() const noexcept {
  return impl_->is_basic ? 1 : impl_->fields.size();
}
const std::vector<TypeField>& Datatype::fields() const noexcept {
  return impl_->fields;
}

const std::vector<PackRun>& Datatype::pack_plan() const noexcept {
  return impl_->plan;
}

void Datatype::gather_into(MutableByteSpan out, const void* base,
                           std::size_t count) const {
  CID_REQUIRE(committed(), ErrorCode::InvalidArgument,
              "datatype used before commit()");
  CID_REQUIRE(out.size() == payload_size() * count, ErrorCode::InvalidArgument,
              "gather destination size does not match datatype payload");
  const auto* src = static_cast<const std::byte*>(base);
  if (is_contiguous()) {
    // Elements are back to back: one flat copy regardless of count.
    std::memcpy(out.data(), src, out.size());
    return;
  }
  if (impl_->uniform_runs) {
    // Constant-stride plan (strided column/row extraction): one tight loop
    // per element, no per-run PackRun record walk.
    const std::size_t runs = impl_->plan.size();
    std::byte* wire = out.data();
    for (std::size_t e = 0; e < count; ++e) {
      copy_runs(wire, src + e * extent() + impl_->run_first, runs,
                impl_->run_bytes, impl_->run_stride);
      wire += runs * impl_->run_bytes;
    }
    return;
  }
  std::size_t pos = 0;
  for (std::size_t e = 0; e < count; ++e) {
    const std::byte* element = src + e * extent();
    for (const auto& run : impl_->plan) {
      std::memcpy(out.data() + pos, element + run.offset, run.bytes);
      pos += run.bytes;
    }
  }
}

ByteBuffer Datatype::gather(const void* base, std::size_t count) const {
  // Arena-recycled: at scale every send allocates here, and the matching
  // release happens when the receiving envelope's payload drops its last
  // reference.
  ByteBuffer out = rt::PayloadArena::global().acquire(payload_size() * count);
  gather_into(MutableByteSpan(out.data(), out.size()), base, count);
  return out;
}

Status Datatype::scatter(ByteSpan wire, void* base, std::size_t count) const {
  CID_REQUIRE(committed(), ErrorCode::InvalidArgument,
              "datatype used before commit()");
  if (wire.size() != payload_size() * count) {
    return Status(ErrorCode::InvalidArgument,
                  "wire buffer size does not match datatype payload: got " +
                      std::to_string(wire.size()) + ", want " +
                      std::to_string(payload_size() * count));
  }
  auto* dst = static_cast<std::byte*>(base);
  if (is_contiguous()) {
    std::memcpy(dst, wire.data(), wire.size());
    return Status::ok();
  }
  if (impl_->uniform_runs) {
    const std::size_t runs = impl_->plan.size();
    const std::byte* wire_pos = wire.data();
    for (std::size_t e = 0; e < count; ++e) {
      scatter_runs(dst + e * extent() + impl_->run_first, wire_pos, runs,
                   impl_->run_bytes, impl_->run_stride);
      wire_pos += runs * impl_->run_bytes;
    }
    return Status::ok();
  }
  std::size_t pos = 0;
  for (std::size_t e = 0; e < count; ++e) {
    std::byte* element = dst + e * extent();
    for (const auto& run : impl_->plan) {
      std::memcpy(element + run.offset, wire.data() + pos, run.bytes);
      pos += run.bytes;
    }
  }
  return Status::ok();
}

}  // namespace cid::mpi
