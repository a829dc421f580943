// Portable SIMD lane abstraction for the batched double kernels.
//
// The hot kernels (queueing/batch.h, the share-grid sizing, the insertion
// DP) are straight elementwise loops over flat SoA arrays. This
// header gives them explicit 4- and 8-wide double lanes built on GCC/Clang
// vector extensions — no raw intrinsics, no <immintrin.h> — plus the
// runtime dispatch machinery that picks a width per process:
//
//   width 8   AVX-512F         (Vec<8> = 64-byte vector)
//   width 4   AVX2             (Vec<4> = 32-byte vector)
//   width 1   scalar fallback  (always available, any architecture)
//
// Bit-identity contract: every helper here is a pure elementwise IEEE
// operation (mul/div/add/sub/compare/bitwise-blend), so a kernel written
// once against Vec<W> produces bitwise-identical results at W = 1, 4 and
// 8 **provided its translation unit is compiled with -ffp-contract=off**
// (the wider targets have FMA; contraction would change rounding). The
// kernel CMake targets set that flag; see DESIGN.md section 13.
//
// Dispatch pattern for a kernel TU: write the body as a width-templated
// always-inline function, wrap it in per-ISA functions carrying
// __attribute__((target("avx2"|"avx512f"))) so the vector ops lower to
// ymm/zmm instructions, and switch on active_width() at the public entry
// point. active_width() honors the CLOUDALLOC_LANE_WIDTH env override
// (clamped to what the CPU supports) so the SIMD-vs-scalar fuzz tests and
// bisection runs can force any width.
//
// This header is the only sanctioned home for vector_size types; the
// repo lint (tools/lint.py, rule raw-intrinsics) flags vector extensions
// and x86 intrinsics anywhere else outside src/common/.
#pragma once

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace cloudalloc::simd {

#if defined(__x86_64__) || defined(__i386__)
#define CLOUDALLOC_SIMD_X86 1
#else
#define CLOUDALLOC_SIMD_X86 0
#endif

// GCC fixes the mask type of a vector comparison when it lowers the
// function that holds it, so an always-inline body instantiated outside any
// target region keeps the baseline ISA's mask type even once inlined into
// an avx512f wrapper. There, a body that ANDs comparison results (the
// queueing kernels' stability tests) is lowered one lane at a time
// (vcomisd / seta / vpinsrq per lane). Explicitly instantiating the
// width-8 body between these two markers gives it AVX-512 mask types:
// vcmppd into k registers and masked blends. Clang lowers vector code
// after inlining and needs no region, so the markers are empty there.
#if CLOUDALLOC_SIMD_X86 && defined(__GNUC__) && !defined(__clang__)
#define CLOUDALLOC_SIMD_AVX512_BEGIN \
  _Pragma("GCC push_options") _Pragma("GCC target(\"avx512f\")")
#define CLOUDALLOC_SIMD_AVX512_END _Pragma("GCC pop_options")
#else
#define CLOUDALLOC_SIMD_AVX512_BEGIN
#define CLOUDALLOC_SIMD_AVX512_END
#endif

template <int W>
struct LaneTraits;

template <>
struct LaneTraits<4> {
  typedef double Vec __attribute__((vector_size(32)));
  typedef long long Mask __attribute__((vector_size(32)));
};

template <>
struct LaneTraits<8> {
  typedef double Vec __attribute__((vector_size(64)));
  typedef long long Mask __attribute__((vector_size(64)));
};

template <int W>
using Vec = typename LaneTraits<W>::Vec;
template <int W>
using Mask = typename LaneTraits<W>::Mask;

// Loads/stores go through memcpy so the element type only has to be
// layout-identical to double (units::Quantity<Dim> qualifies; common/units.h
// static_asserts it) — no aliasing games.
template <int W, class T>
[[gnu::always_inline]] inline Vec<W> load(const T* p) {
  static_assert(sizeof(T) == sizeof(double));
  Vec<W> v;
  std::memcpy(&v, static_cast<const void*>(p), sizeof v);
  return v;
}

template <int W, class T>
[[gnu::always_inline]] inline void store(T* p, Vec<W> v) {
  static_assert(sizeof(T) == sizeof(double));
  std::memcpy(static_cast<void*>(p), &v, sizeof v);
}

template <int W>
[[gnu::always_inline]] inline Vec<W> splat(double x) {
  return Vec<W>{} + x;
}

/// Lane-wise blend: mask lanes are all-ones/all-zero (comparison results),
/// so a bitwise select is exact — the chosen lane's bits pass through
/// untouched, never re-rounded.
template <int W, class M>
[[gnu::always_inline]] inline Vec<W> select(M m, Vec<W> a, Vec<W> b) {
  // GCC-sanctioned same-size vector casts: a bit reinterpretation, not a
  // lane-wise value conversion. M is the compiler-chosen comparison-result
  // vector type (signed integer lanes, all-ones/all-zero).
  static_assert(sizeof(M) == sizeof(Mask<W>));
  const Mask<W> mm = (Mask<W>)m;
  const Mask<W> r = (mm & (Mask<W>)a) | (~mm & (Mask<W>)b);
  return (Vec<W>)r;
}

/// std::min / std::max with the exact same operand order as the scalar
/// forms: min(a,b) = b < a ? b : a, max(a,b) = a < b ? b : a.
template <int W>
[[gnu::always_inline]] inline Vec<W> vmin(Vec<W> a, Vec<W> b) {
  return select<W>(b < a, b, a);
}
template <int W>
[[gnu::always_inline]] inline Vec<W> vmax(Vec<W> a, Vec<W> b) {
  return select<W>(a < b, b, a);
}

/// Widest lane width this CPU can execute (8 / 4 / 1).
inline int max_supported_width() {
#if CLOUDALLOC_SIMD_X86
  if (__builtin_cpu_supports("avx512f")) return 8;
  if (__builtin_cpu_supports("avx2")) return 4;
#endif
  return 1;
}

namespace detail {
inline std::atomic<int>& width_slot() {
  static std::atomic<int> slot{0};  // 0 = not resolved yet
  return slot;
}
}  // namespace detail

/// The process-wide lane width the dispatched kernels run at: the widest
/// supported width, optionally narrowed by CLOUDALLOC_LANE_WIDTH (1, 4 or
/// 8; wider-than-supported requests clamp down). Resolved once, on first
/// use; results are identical at every width by the bit-identity contract
/// above, so this only ever trades speed.
inline int active_width() {
  int w = detail::width_slot().load(std::memory_order_relaxed);
  if (w != 0) return w;
  int chosen = max_supported_width();
  if (const char* env = std::getenv("CLOUDALLOC_LANE_WIDTH")) {
    const int e = std::atoi(env);
    if (e == 1 || e == 4 || e == 8) {
      chosen = e < chosen ? e : chosen;
    }
  }
  detail::width_slot().store(chosen, std::memory_order_relaxed);
  return chosen;
}

/// Test hook: forces active_width() to `w` (clamped to hardware support)
/// for the rest of the process. The SIMD-vs-scalar fuzz tests sweep this
/// to pin bitwise equality across widths; production code never calls it.
inline void override_width_for_test(int w) {
  const int supported = max_supported_width();
  if (w != 1 && w != 4 && w != 8) w = 1;
  detail::width_slot().store(w < supported ? w : supported,
                             std::memory_order_relaxed);
}

}  // namespace cloudalloc::simd
