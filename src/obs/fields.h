// One field list per serialized record, and the four operations every
// result block needs, derived from it: a JSON writer, a JSON reader, an
// FNV-1a digest and an exact fold.
//
// A record names each field once, in a static member
//
//   template <typename F> static void fields(F&& f) {
//     f("arrivals", &FrontendResult::arrivals, kSum);
//     ...
//   }
//
// that calls f(key, member pointer, fold rule) per field in JSON order,
// which is also the order the digest folds them in (the golden files pin
// both). A member's C++ type picks its encoding:
//   * integers, doubles, bools and strings are JSON scalars, and fold into
//     the digest as eight bytes (a double by its bits, a string by length
//     and bytes);
//   * a record member (SloSpec) splices its own fields into the parent;
//   * a std::vector of records is an array, sized first in the digest; a
//     record marked kRow is a positional row, any other an object;
//   * a C array fills consecutive row cells and digests element-wise;
//   * a member whose entry names a codec as a fourth argument (the
//     latency histogram, forensics' named causes) is written and read by
//     that codec, and digests through its own digest().
// The fold rule says how a field merges across runs; RunResult's scalars
// carry the averaging rules average_results applies instead.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/obs/fnv.h"
#include "src/obs/json.h"
#include "src/obs/json_reader.h"

namespace irs::obs {

/// How a field folds across runs.
enum class Fold {
  kSum,      // add; histograms merge, rows and C arrays add element-wise
  kMax,      // keep the larger
  kKeep,     // the accumulator's value stands (match keys, SLO specs)
  kByName,   // classes: merge by name, a new one at its sorted position
  kByIndex,  // windows: merge by index, kept ascending
  // Averaging rules of RunResult's scalars (exp::average_results):
  kOr,       // any run
  kXor,      // order-independent hash combine
  kMean,     // arithmetic mean, accumulated in double
  kIntMean,  // integer sum divided by the run count
};

template <Fold F>
using FoldRule = std::integral_constant<Fold, F>;
inline constexpr FoldRule<Fold::kSum> kSum{};
inline constexpr FoldRule<Fold::kMax> kMax{};
inline constexpr FoldRule<Fold::kKeep> kKeep{};
inline constexpr FoldRule<Fold::kByName> kByName{};
inline constexpr FoldRule<Fold::kByIndex> kByIndex{};
inline constexpr FoldRule<Fold::kOr> kOr{};
inline constexpr FoldRule<Fold::kXor> kXor{};
inline constexpr FoldRule<Fold::kMean> kMean{};
inline constexpr FoldRule<Fold::kIntMean> kIntMean{};

namespace detail {

struct AnyField {
  template <typename... A>
  void operator()(A&&...) const {}
};

template <typename T>
struct IsVector : std::false_type {};
template <typename T>
struct IsVector<std::vector<T>> : std::true_type {};

template <typename M>
struct MemberOf;
template <typename C, typename T>
struct MemberOf<T C::*> {
  using type = T;
};

}  // namespace detail

/// A type with a field list.
template <typename T>
concept Record = requires { T::fields(detail::AnyField{}); };

/// A record serialized as a positional row rather than an object.
template <typename T>
concept RowRecord = Record<T> && T::kRow;

/// Sets *err (when non-null) and returns false: every reader's error path.
inline bool fail(std::string* err, const std::string& msg) {
  if (err != nullptr) *err = msg;
  return false;
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

template <typename T>
void write_scalar(JsonWriter& w, const T& v) {
  if constexpr (std::is_same_v<T, bool> || std::is_same_v<T, double> ||
                std::is_same_v<T, std::string>) {
    w.value(v);
  } else if constexpr (std::is_unsigned_v<T>) {
    w.value(static_cast<std::uint64_t>(v));
  } else {
    w.value(static_cast<std::int64_t>(v));
  }
}

template <typename R>
void write_fields(JsonWriter& w, const R& r);

/// Row cells of one member: a scalar is one cell, a C array one per
/// element.
template <typename T>
void write_cells(JsonWriter& w, const T& v) {
  if constexpr (std::is_array_v<T>) {
    for (const auto& e : v) write_cells(w, e);
  } else {
    write_scalar(w, v);
  }
}

template <typename E>
void write_element(JsonWriter& w, const E& e) {
  if constexpr (RowRecord<E>) {
    w.begin_array();
    E::fields(
        [&](const char*, auto m, auto, auto...) { write_cells(w, e.*m); });
    w.end_array();
  } else {
    w.begin_object();
    write_fields(w, e);
    w.end_object();
  }
}

/// Write every field of `r` into the open object on `w`.
template <typename R>
void write_fields(JsonWriter& w, const R& r) {
  R::fields([&](const char* key, auto m, auto, auto... codec) {
    using T = typename detail::MemberOf<decltype(m)>::type;
    if constexpr (sizeof...(codec) > 0) {
      (codec.write(w, key, r.*m), ...);
    } else if constexpr (Record<T>) {
      write_fields(w, r.*m);
    } else if constexpr (detail::IsVector<T>::value) {
      w.key(key);
      w.begin_array();
      for (const auto& e : r.*m) write_element(w, e);
      w.end_array();
    } else {
      w.key(key);
      write_scalar(w, r.*m);
    }
  });
}

/// `r` as one JSON object (fixed key order, integers exact).
template <typename R>
void write_block(JsonWriter& w, const R& r) {
  w.begin_object();
  write_fields(w, r);
  w.end_object();
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// One JSON scalar into *out: false on a wrong kind or a value *out cannot
/// hold.
template <typename T>
bool read_scalar(const JsonValue& v, T* out) {
  if constexpr (std::is_same_v<T, std::uint32_t>) {
    std::uint64_t u = 0;
    if (!v.get(&u) || u > std::numeric_limits<std::uint32_t>::max()) {
      return false;
    }
    *out = static_cast<std::uint32_t>(u);
    return true;
  } else {
    return v.get(out);
  }
}

/// The scalar at `key` of object `v` into *out, or "<what>: missing or bad
/// '<key>'".
template <typename T>
bool read_field(const JsonValue& v, const char* key, const std::string& what,
                T* out, std::string* err) {
  const JsonValue* f = v.find(key);
  if (f == nullptr || !read_scalar(*f, out)) {
    return fail(err, what + ": missing or bad '" + key + "'");
  }
  return true;
}

template <typename R>
bool read_fields(const JsonValue& v, const std::string& what, R* out,
                 std::string* err);

/// Object `v` into *out through R's field list; errors name `what`.
template <typename R>
bool read_object(const JsonValue& v, const std::string& what, R* out,
                 std::string* err) {
  if (!v.is_object()) return fail(err, what + " is not a JSON object");
  return read_fields(v, what, out, err);
}

/// Row cells into one member; cells past the row's end leave it default.
template <typename T>
bool read_cells(const JsonValue& row, std::size_t* next, T* out) {
  if constexpr (std::is_array_v<T>) {
    for (auto& e : *out) {
      if (!read_cells(row, next, &e)) return false;
    }
    return true;
  } else {
    if (*next >= row.items.size()) return true;
    return read_scalar(row.items[(*next)++], out);
  }
}

/// Cells in a full row of E.
template <typename E>
std::size_t row_width() {
  std::size_t n = 0;
  E::fields([&](const char*, auto m, auto, auto...) {
    using T = typename detail::MemberOf<decltype(m)>::type;
    n += std::is_array_v<T> ? std::extent_v<T> : 1;
  });
  return n;
}

/// The shortest row E accepts: a full one, unless E declares kMinRow (a
/// row that grew cells keeps reading its older, shorter form).
template <typename E>
std::size_t min_row_width() {
  if constexpr (requires { E::kMinRow; }) {
    return E::kMinRow;
  } else {
    return row_width<E>();
  }
}

template <typename E>
bool read_element(const JsonValue& v, const char* key, const std::string& what,
                  E* out, std::string* err) {
  if constexpr (RowRecord<E>) {
    const std::size_t max = row_width<E>();
    const std::size_t min = min_row_width<E>();
    if (!v.is_array() || v.items.size() < min || v.items.size() > max) {
      return fail(err, what + ": '" + key + "' rows must be " +
                           (min == max ? "" : std::to_string(min) + "- to ") +
                           std::to_string(max) + "-element arrays");
    }
    std::size_t next = 0;
    bool ok = true;
    E::fields([&](const char*, auto m, auto, auto...) {
      ok = ok && read_cells(v, &next, &(out->*m));
    });
    return ok || fail(err, what + ": bad value in '" + key + "' row");
  } else {
    return read_object(v, E::kWhat, out, err);
  }
}

/// Every field of `*out` from object `v`; errors name `what` and the key.
template <typename R>
bool read_fields(const JsonValue& v, const std::string& what, R* out,
                 std::string* err) {
  bool ok = true;
  R::fields([&](const char* key, auto m, auto, auto... codec) {
    using T = typename detail::MemberOf<decltype(m)>::type;
    if (!ok) return;
    if constexpr (sizeof...(codec) > 0) {
      ok = (codec.read(v, key, what, &(out->*m), err) && ...);
    } else if constexpr (Record<T>) {
      ok = read_fields(v, what, &(out->*m), err);
    } else if constexpr (detail::IsVector<T>::value) {
      const JsonValue* a = v.find(key);
      if (a == nullptr || !a->is_array()) {
        ok = fail(err, what + ": missing or bad '" + key + "'");
        return;
      }
      (out->*m).resize(a->items.size());
      for (std::size_t i = 0; ok && i < a->items.size(); ++i) {
        ok = read_element(a->items[i], key, what, &(out->*m)[i], err);
      }
    } else {
      ok = read_field(v, key, what, &(out->*m), err);
    }
  });
  return ok;
}

/// Inverse of write_block: false + *err (naming B::kWhat and the field) on
/// a malformed value, leaving *out untouched.
template <typename B>
bool read_block(const JsonValue& v, B* out, std::string* err) {
  B b;
  if (!read_object(v, B::kWhat, &b, err)) return false;
  *out = std::move(b);
  return true;
}

// ---------------------------------------------------------------------------
// Digest
// ---------------------------------------------------------------------------

template <typename T>
void digest_value(std::uint64_t& h, const T& v) {
  if constexpr (Record<T>) {
    T::fields([&](const char*, auto m, auto, auto...) {
      digest_value(h, v.*m);
    });
  } else if constexpr (detail::IsVector<T>::value) {
    fnv(h, v.size());
    for (const auto& e : v) digest_value(h, e);
  } else if constexpr (std::is_array_v<T>) {
    for (const auto& e : v) digest_value(h, e);
  } else if constexpr (std::is_same_v<T, std::string>) {
    fnv_str(h, v);
  } else if constexpr (std::is_same_v<T, double>) {
    fnv(h, std::bit_cast<std::uint64_t>(v));
  } else if constexpr (std::is_class_v<T>) {
    fnv(h, v.digest());
  } else {
    fnv(h, static_cast<std::uint64_t>(v));
  }
}

/// FNV-1a over every field of a block in list order; 0 for an empty block.
template <typename B>
std::uint64_t block_digest(const B& b) {
  if (b.empty()) return 0;
  std::uint64_t h = kFnvOffset;
  digest_value(h, b);
  return h;
}

// ---------------------------------------------------------------------------
// Fold
// ---------------------------------------------------------------------------

template <typename R>
void fold_fields(R& acc, const R& r);

/// Merge the records of `r` into `acc` by key: a class by name (a new one
/// at its name-sorted position, so runs of different workloads fold alike
/// in any order), a window by index (kept ascending).
template <Fold F, typename E>
void merge_keyed(std::vector<E>& acc, const std::vector<E>& r) {
  const auto key = [](const E& e) -> const auto& {
    if constexpr (F == Fold::kByName) {
      return e.name;
    } else {
      return e.index;
    }
  };
  for (const E& e : r) {
    const auto it = std::find_if(acc.begin(), acc.end(), [&](const E& a) {
      return key(a) == key(e);
    });
    if (it != acc.end()) {
      fold_fields(*it, e);
    } else if constexpr (F == Fold::kByName) {
      acc.insert(std::lower_bound(acc.begin(), acc.end(), e,
                                  [&](const E& a, const E& b) {
                                    return key(a) < key(b);
                                  }),
                 e);
    } else {
      acc.push_back(e);
    }
  }
  if constexpr (F == Fold::kByIndex) {
    std::sort(acc.begin(), acc.end(),
              [&](const E& a, const E& b) { return key(a) < key(b); });
  }
}

template <Fold F, typename T>
void fold_value(T& acc, const T& r) {
  if constexpr (F == Fold::kKeep) {
  } else if constexpr (F == Fold::kMax) {
    acc = std::max(acc, r);
  } else if constexpr (F == Fold::kByName || F == Fold::kByIndex) {
    merge_keyed<F>(acc, r);
  } else if constexpr (std::is_array_v<T>) {
    for (std::size_t i = 0; i < std::extent_v<T>; ++i) {
      fold_value<F>(acc[i], r[i]);
    }
  } else if constexpr (detail::IsVector<T>::value) {
    if (acc.size() < r.size()) acc.resize(r.size());
    for (std::size_t i = 0; i < r.size(); ++i) fold_fields(acc[i], r[i]);
  } else if constexpr (std::is_class_v<T>) {
    acc.merge(r);
  } else {
    static_assert(F == Fold::kSum);
    acc += r;
  }
}

template <typename R>
void fold_fields(R& acc, const R& r) {
  R::fields([&](const char*, auto m, auto rule, auto...) {
    fold_value<decltype(rule)::value>(acc.*m, r.*m);
  });
}

/// Exact fold of `r` into `acc` (for sweep averaging). An empty block
/// changes nothing and an empty accumulator takes `r` whole; otherwise
/// each field merges by its rule. Folding N runs whose class lists are
/// name-sorted (every run's is) in any order is bit-identical to any
/// other order.
template <typename B>
void fold_block(B& acc, const B& r) {
  if (r.empty()) return;
  if (acc.empty()) {
    acc = r;
    return;
  }
  fold_fields(acc, r);
}

}  // namespace irs::obs
