#include "nanocost/exec/rng_batch.hpp"

#include <cstddef>
#include <cstdint>

#if defined(NANOCOST_X86_SIMD)
#include <immintrin.h>
#endif

namespace nanocost::exec {

namespace {

constexpr std::uint64_t kGamma = 0x9E3779B97F4A7C15ULL;
constexpr std::uint64_t kMul1 = 0xBF58476D1CE4E5B9ULL;
constexpr std::uint64_t kMul2 = 0x94D049BB133111EBULL;

// ---- scalar lanes -------------------------------------------------------

/// out[i] = splitmix64(start + i * stride).  Every batch below is an
/// instance of this affine-counter form: consecutive outputs of one
/// stream (stride = gamma) or per-task seeds (stride = gamma, shifted
/// start).
void mix_affine_scalar(std::uint64_t start, std::uint64_t stride, std::uint64_t* out,
                       std::size_t n) {
  std::uint64_t z = start;
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = splitmix64(z);
    z += stride;
  }
}

void mix_add_scalar(const std::uint64_t* states, std::uint64_t addend, std::uint64_t* out,
                    std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = splitmix64(states[i] + addend);
}

void u53_scalar(const std::uint64_t* bits, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<double>(bits[i] >> 11) * 0x1.0p-53;
  }
}

void u53_pos_scalar(const std::uint64_t* bits, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<double>((bits[i] >> 11) + 1) * 0x1.0p-53;
  }
}

#if defined(NANOCOST_X86_SIMD)

// ---- AVX2 lanes (4 x 64-bit) --------------------------------------------

/// 64-bit lane-wise multiply from 32-bit multiplies: lo*lo plus the two
/// cross terms shifted up (the hi*hi term overflows out of the lane).
NANOCOST_TARGET_AVX2 inline __m256i mullo64_avx2(__m256i a, __m256i b) {
  const __m256i lo = _mm256_mul_epu32(a, b);
  const __m256i c1 = _mm256_mul_epu32(_mm256_srli_epi64(a, 32), b);
  const __m256i c2 = _mm256_mul_epu32(a, _mm256_srli_epi64(b, 32));
  return _mm256_add_epi64(lo, _mm256_slli_epi64(_mm256_add_epi64(c1, c2), 32));
}

NANOCOST_TARGET_AVX2 inline __m256i splitmix64_avx2(__m256i z) {
  z = mullo64_avx2(_mm256_xor_si256(z, _mm256_srli_epi64(z, 30)),
                   _mm256_set1_epi64x(static_cast<long long>(kMul1)));
  z = mullo64_avx2(_mm256_xor_si256(z, _mm256_srli_epi64(z, 27)),
                   _mm256_set1_epi64x(static_cast<long long>(kMul2)));
  return _mm256_xor_si256(z, _mm256_srli_epi64(z, 31));
}

NANOCOST_TARGET_AVX2 void mix_affine_avx2(std::uint64_t start, std::uint64_t stride,
                                          std::uint64_t* out, std::size_t n) {
  __m256i z = _mm256_set_epi64x(
      static_cast<long long>(start + 3 * stride), static_cast<long long>(start + 2 * stride),
      static_cast<long long>(start + stride), static_cast<long long>(start));
  const __m256i step = _mm256_set1_epi64x(static_cast<long long>(4 * stride));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), splitmix64_avx2(z));
    z = _mm256_add_epi64(z, step);
  }
  if (i < n) mix_affine_scalar(start + i * stride, stride, out + i, n - i);
}

NANOCOST_TARGET_AVX2 void mix_add_avx2(const std::uint64_t* states, std::uint64_t addend,
                                       std::uint64_t* out, std::size_t n) {
  const __m256i add = _mm256_set1_epi64x(static_cast<long long>(addend));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i z = _mm256_add_epi64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(states + i)), add);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), splitmix64_avx2(z));
  }
  if (i < n) mix_add_scalar(states + i, addend, out + i, n - i);
}

/// Exact u64 -> double for values < 2^53: split into 32-bit halves,
/// convert each through the 2^52 magic-bias trick, and recombine as
/// hi * 2^32 + lo.  Every step is an exact double operation, so the
/// result is bitwise the scalar static_cast.
NANOCOST_TARGET_AVX2 inline __m256d u64lt53_to_pd_avx2(__m256i s) {
  const __m256d bias = _mm256_castsi256_pd(_mm256_set1_epi64x(0x4330000000000000LL));  // 2^52
  const __m256i hi = _mm256_srli_epi64(s, 32);
  const __m256i lo = _mm256_and_si256(s, _mm256_set1_epi64x(0xFFFFFFFFLL));
  const __m256d hid =
      _mm256_sub_pd(_mm256_castsi256_pd(_mm256_or_si256(hi, _mm256_castpd_si256(bias))), bias);
  const __m256d lod =
      _mm256_sub_pd(_mm256_castsi256_pd(_mm256_or_si256(lo, _mm256_castpd_si256(bias))), bias);
  return _mm256_add_pd(_mm256_mul_pd(hid, _mm256_set1_pd(0x1.0p32)), lod);
}

NANOCOST_TARGET_AVX2 void u53_avx2(const std::uint64_t* bits, double* out, std::size_t n) {
  const __m256d scale = _mm256_set1_pd(0x1.0p-53);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i s =
        _mm256_srli_epi64(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(bits + i)), 11);
    _mm256_storeu_pd(out + i, _mm256_mul_pd(u64lt53_to_pd_avx2(s), scale));
  }
  if (i < n) u53_scalar(bits + i, out + i, n - i);
}

NANOCOST_TARGET_AVX2 void u53_pos_avx2(const std::uint64_t* bits, double* out, std::size_t n) {
  const __m256d scale = _mm256_set1_pd(0x1.0p-53);
  const __m256i one = _mm256_set1_epi64x(1);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i s = _mm256_add_epi64(
        _mm256_srli_epi64(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(bits + i)), 11),
        one);
    _mm256_storeu_pd(out + i, _mm256_mul_pd(u64lt53_to_pd_avx2(s), scale));
  }
  if (i < n) u53_pos_scalar(bits + i, out + i, n - i);
}

#endif  // NANOCOST_X86_SIMD

void mix_affine_at(SimdLevel level, std::uint64_t start, std::uint64_t stride,
                   std::uint64_t* out, std::size_t n) {
#if defined(NANOCOST_X86_SIMD)
  if (level == SimdLevel::kAvx2) return mix_affine_avx2(start, stride, out, n);
#else
  (void)level;
#endif
  mix_affine_scalar(start, stride, out, n);
}

}  // namespace

void splitmix64_batch_at(SimdLevel level, SplitMix64& rng, std::uint64_t* out, std::size_t n) {
  mix_affine_at(level, rng.state() + kGamma, kGamma, out, n);
  rng.advance(n);
}

void for_task_batch_at(SimdLevel level, std::uint64_t base, std::uint64_t index0,
                       std::uint64_t* out, std::size_t n) {
  mix_affine_at(level, base + (index0 + 1) * kGamma, kGamma, out, n);
}

void mix_add_batch_at(SimdLevel level, const std::uint64_t* states, std::uint64_t addend,
                      std::uint64_t* out, std::size_t n) {
#if defined(NANOCOST_X86_SIMD)
  if (level == SimdLevel::kAvx2) return mix_add_avx2(states, addend, out, n);
#else
  (void)level;
#endif
  mix_add_scalar(states, addend, out, n);
}

void u53_to_unit_batch_at(SimdLevel level, const std::uint64_t* bits, double* out,
                          std::size_t n) {
#if defined(NANOCOST_X86_SIMD)
  if (level == SimdLevel::kAvx2) return u53_avx2(bits, out, n);
#else
  (void)level;
#endif
  u53_scalar(bits, out, n);
}

void u53_to_unit_pos_batch_at(SimdLevel level, const std::uint64_t* bits, double* out,
                              std::size_t n) {
#if defined(NANOCOST_X86_SIMD)
  if (level == SimdLevel::kAvx2) return u53_pos_avx2(bits, out, n);
#else
  (void)level;
#endif
  u53_pos_scalar(bits, out, n);
}

void uniform_unit_batch_at(SimdLevel level, SplitMix64& rng, double* out, std::size_t n) {
  // Raw bits staged through a stack block so arbitrarily large batches
  // stay allocation-free.
  constexpr std::size_t kBlock = 64;
  std::uint64_t bits[kBlock];
  std::size_t done = 0;
  while (done < n) {
    const std::size_t take = n - done < kBlock ? n - done : kBlock;
    splitmix64_batch_at(level, rng, bits, take);
    u53_to_unit_batch_at(level, bits, out + done, take);
    done += take;
  }
}

void uniform_unit_batch(SplitMix64& rng, double* out, std::size_t n) {
  uniform_unit_batch_at(simd_level(), rng, out, n);
}

}  // namespace nanocost::exec
