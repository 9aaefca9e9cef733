// The two archives every snapshot::Access::io() walker runs against
// (DESIGN.md §12.1): Save appends a live world's fields to a byte
// buffer, Load overwrites a live world's fields from one. Scalars are
// raw native-order object bytes (same-architecture contract: an image
// is a local artifact for resuming sweeps, not an interchange format);
// contiguous arrays of plain values are one memcpy each way.
//
// Load trusts nothing it reads: every count is checked against the
// bytes that remain before anything is allocated, bools and enums are
// range-checked, and any failure throws LoadError.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "snapshot/snapshot.hpp"

namespace hpmmap::os {
class Node;
}

namespace hpmmap::snapshot {

[[noreturn]] inline void reject(const char* what) {
  throw LoadError(std::string("snapshot: ") + what);
}

template <class T>
inline constexpr bool kIsVector = false;
template <class T>
inline constexpr bool kIsVector<std::vector<T>> = true;
template <class T>
inline constexpr bool kIsPair = false;
template <class A, class B>
inline constexpr bool kIsPair<std::pair<A, B>> = true;

/// A value whose every bit pattern is valid, so Load may memcpy it.
template <class T>
inline constexpr bool kIsPlain =
    (std::is_arithmetic_v<T> && !std::is_same_v<T, bool>) || std::is_same_v<T, Range>;

template <bool Loading>
class Archive {
 public:
  static constexpr bool kLoad = Loading;
  using Ptr = std::conditional_t<Loading, void*, const void*>;

  /// Save: append to `out`; nullptr only counts the bytes (size()).
  explicit Archive(Bytes* out) requires(!Loading) : out_(out) {}
  /// Load: decode `in` from the front.
  explicit Archive(const Bytes& in) requires(Loading) : in_(&in) {}

  /// The node whose processes resolve AddressSpace*/Process* fields,
  /// which the image stores as pids.
  os::Node* node = nullptr;

  [[nodiscard]] std::size_t size() const noexcept { return pos_; }

  void bytes(Ptr p, std::size_t n) {
    if constexpr (Loading) {
      if (n > in_->size() - pos_) {
        reject("truncated image");
      }
      if (n > 0) { // an empty vector's data() may be null
        std::memcpy(p, in_->data() + pos_, n);
      }
    } else if (out_ != nullptr) {
      out_->append(static_cast<const char*>(p), n);
    }
    pos_ += n;
  }

  /// A sequence length. Load rejects one whose elements, at least
  /// `min_bytes` each, cannot fit in what remains of the image.
  std::size_t count(std::size_t n, std::size_t min_bytes) {
    std::uint64_t v = n;
    bytes(&v, sizeof v);
    if constexpr (Loading) {
      if (v > (in_->size() - pos_) / min_bytes) {
        reject("element count exceeds the image");
      }
    }
    return static_cast<std::size_t>(v);
  }

  /// Scalars, Ranges, strings, pairs and vectors of them.
  template <class... T>
  void operator()(T&... v) {
    (one(v), ...);
  }

  /// A trivially copyable struct whose every bit pattern is valid
  /// (counters, RNG state), as its object bytes.
  template <class T>
  void pod(T& v) {
    static_assert(std::is_trivially_copyable_v<std::remove_const_t<T>>);
    bytes(&v, sizeof v);
  }

  /// A vector of such structs, as one memcpy.
  template <class V>
  void pods(V& v) {
    using E = typename std::remove_const_t<V>::value_type;
    static_assert(std::is_trivially_copyable_v<E>);
    const std::size_t n = count(v.size(), sizeof(E));
    if constexpr (Loading) {
      v.resize(n);
    }
    bytes(v.data(), n * sizeof(E));
  }

  /// Element by element: Load clears `c` and appends each element as
  /// `fn` decodes it, so memory grows only with bytes consumed.
  template <class C, class Fn>
  void seq(C& c, Fn&& fn) {
    const std::size_t n = count(c.size(), 1);
    if constexpr (Loading) {
      c.clear();
      for (std::size_t i = 0; i < n; ++i) {
        fn(c.emplace_back());
      }
    } else {
      for (auto& e : c) {
        fn(e);
      }
    }
  }

  /// A std::map keyed by string: keys with operator(), values with `fn`.
  template <class M, class Fn>
  void map(M& m, Fn&& fn) {
    const std::size_t n = count(m.size(), 1);
    if constexpr (Loading) {
      m.clear();
      for (std::size_t i = 0; i < n; ++i) {
        typename M::key_type key;
        one(key);
        fn(m[key]);
      }
    } else {
      for (auto& [key, value] : m) {
        one(key);
        fn(value);
      }
    }
  }

  /// An enum as its underlying integer; Load rejects values `ok` refuses.
  template <class E, class Ok>
  void enm(E& e, Ok ok) {
    auto raw = static_cast<std::underlying_type_t<E>>(e);
    one(raw);
    if constexpr (Loading) {
      e = static_cast<E>(raw);
      check(ok(e), "enum value out of range");
    }
  }
  /// An enum whose values are 0..last.
  template <class E>
  void enm(E& e, E last) {
    enm(e, [last](E x) { return x <= last; });
  }

  /// A layout fact the target world already holds: Save writes it, Load
  /// rejects an image whose value differs from the target's.
  template <class T>
  void expect(const T& want, const char* what) {
    if constexpr (Loading) {
      T got{};
      one(got);
      check(got == want, what);
    } else {
      one(want);
    }
  }

  void check(bool ok, const char* what) const {
    if (Loading && !ok) {
      reject(what);
    }
  }

  /// Load: every byte must have been consumed.
  void finish() const { check(pos_ == in_->size(), "trailing bytes in image"); }

 private:
  template <class T>
  void one(T& v) {
    using U = std::remove_const_t<T>;
    if constexpr (std::is_same_v<U, bool>) {
      std::uint8_t b = v ? 1 : 0;
      bytes(&b, 1);
      if constexpr (Loading) {
        check(b <= 1, "bool out of range");
        v = b != 0;
      }
    } else if constexpr (kIsPlain<U>) {
      bytes(&v, sizeof v);
    } else if constexpr (std::is_same_v<U, std::string>) {
      const std::size_t n = count(v.size(), 1);
      if constexpr (Loading) {
        v.resize(n);
      }
      bytes(v.data(), n);
    } else if constexpr (kIsPair<U>) {
      one(v.first);
      one(v.second);
    } else if constexpr (kIsVector<U>) {
      if constexpr (kIsPlain<typename U::value_type>) {
        pods(v);
      } else {
        seq(v, [this](auto& e) { one(e); });
      }
    } else {
      static_assert(!sizeof(U), "no archive encoding for this type");
    }
  }

  Bytes* out_ = nullptr;
  const Bytes* in_ = nullptr;
  std::size_t pos_ = 0;
};

using Save = Archive<false>;
using Load = Archive<true>;

} // namespace hpmmap::snapshot
