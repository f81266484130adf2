// miniMPI datatypes: the basic types plus MPI_Type_create_struct-style
// derived struct types (displacement / block-length / basic-type triples, the
// exact representation the paper's compiler builds for composite buffers).
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/error.hpp"

namespace cid::mpi {

enum class BasicType {
  Char,
  SignedChar,
  UnsignedChar,
  Short,
  Int,
  UnsignedInt,
  Long,
  UnsignedLong,
  LongLong,
  Float,
  Double,
  LongDouble,
  Byte,
  Packed,  ///< opaque bytes produced by pack()
};

/// Size in bytes of one element of a basic type.
std::size_t basic_type_size(BasicType type) noexcept;

/// Stable display name ("MPI_DOUBLE"-style) used in messages and codegen.
std::string_view basic_type_name(BasicType type) noexcept;

/// One block of a derived struct type.
struct TypeField {
  std::size_t displacement = 0;  ///< byte offset from the element base
  std::size_t block_length = 0;  ///< number of basic elements in the block
  BasicType type = BasicType::Byte;
};

/// One copy of a compiled pack plan: `bytes` contiguous bytes at `offset`
/// from the element base. Declaration-adjacent fields that are also
/// memory-adjacent compile into a single run, so a padded-but-ordered struct
/// packs with far fewer memcpy calls than it has fields (and a hole-free one
/// with exactly one). Runs are in declaration order: the wire byte layout is
/// identical to a field-by-field walk.
struct PackRun {
  std::size_t offset = 0;
  std::size_t bytes = 0;
};

/// Value-semantic datatype handle. Basic types are singletons; struct types
/// share their immutable layout.
class Datatype {
 public:
  /// A basic (predefined) type. Already committed.
  static Datatype basic(BasicType type);

  /// MPI_Type_create_struct: build a derived type from field blocks over an
  /// element of total byte extent `extent` (sizeof the C struct, including
  /// trailing padding). Fails on empty/overlapping/out-of-extent fields.
  static Result<Datatype> create_struct(std::vector<TypeField> fields,
                                        std::size_t extent);

  /// MPI_Type_commit: must be called on derived types before use.
  void commit() noexcept;
  bool committed() const noexcept;

  bool is_basic() const noexcept;
  BasicType basic_type() const;  ///< valid only when is_basic()

  /// Byte extent of one element (stride between consecutive elements).
  std::size_t extent() const noexcept;
  /// Bytes of payload in one element (sum of blocks; == extent when the type
  /// has no padding holes).
  std::size_t payload_size() const noexcept;
  /// True when the payload occupies the whole extent with no holes, so
  /// `count` elements can be moved as one flat copy.
  bool is_contiguous() const noexcept;

  const std::vector<TypeField>& fields() const noexcept;

  /// Compiled pack plan (built once at type creation): the maximal
  /// contiguous runs a pack/unpack walks per element. Basic and contiguous
  /// types have a single run covering the whole payload.
  const std::vector<PackRun>& pack_plan() const noexcept;

  /// Gather `count` elements starting at `base` into a contiguous wire
  /// buffer (run by run along the pack plan for non-contiguous types).
  ByteBuffer gather(const void* base, std::size_t count) const;
  /// Gather directly into caller-owned storage; `out` must be exactly
  /// payload_size() * count bytes. Lets callers that already own the wire
  /// destination (pack(), prefixed protocol payloads) skip a staging copy.
  void gather_into(MutableByteSpan out, const void* base,
                   std::size_t count) const;
  /// Scatter a wire buffer produced by gather() into `count` elements at
  /// `base`. Fails if the buffer size does not match.
  Status scatter(ByteSpan wire, void* base, std::size_t count) const;

  friend bool operator==(const Datatype& a, const Datatype& b) noexcept {
    return a.impl_ == b.impl_;
  }

 private:
  struct Impl;
  explicit Datatype(std::shared_ptr<Impl> impl) : impl_(std::move(impl)) {}
  std::shared_ptr<Impl> impl_;
};

/// Map a C++ arithmetic type to its miniMPI basic type.
template <typename T>
constexpr BasicType basic_type_of() noexcept;

template <> constexpr BasicType basic_type_of<char>() noexcept { return BasicType::Char; }
template <> constexpr BasicType basic_type_of<signed char>() noexcept { return BasicType::SignedChar; }
template <> constexpr BasicType basic_type_of<unsigned char>() noexcept { return BasicType::UnsignedChar; }
template <> constexpr BasicType basic_type_of<short>() noexcept { return BasicType::Short; }
template <> constexpr BasicType basic_type_of<int>() noexcept { return BasicType::Int; }
template <> constexpr BasicType basic_type_of<unsigned int>() noexcept { return BasicType::UnsignedInt; }
template <> constexpr BasicType basic_type_of<long>() noexcept { return BasicType::Long; }
template <> constexpr BasicType basic_type_of<unsigned long>() noexcept { return BasicType::UnsignedLong; }
template <> constexpr BasicType basic_type_of<long long>() noexcept { return BasicType::LongLong; }
template <> constexpr BasicType basic_type_of<float>() noexcept { return BasicType::Float; }
template <> constexpr BasicType basic_type_of<double>() noexcept { return BasicType::Double; }
template <> constexpr BasicType basic_type_of<long double>() noexcept { return BasicType::LongDouble; }

/// Datatype handle for a C++ arithmetic type.
template <typename T>
Datatype datatype_of() {
  return Datatype::basic(basic_type_of<T>());
}

}  // namespace cid::mpi
