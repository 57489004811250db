// Batched (SoA) forms of the exec/rng.hpp draws.
//
// SplitMix64 is counter-based -- output i of a stream is
// splitmix64(state + (i+1) * gamma), a pure function of the state and
// the index -- so a batch of N consecutive outputs is N independent
// evaluations of the same mix function on an affine index sequence.
// That is embarrassingly SIMD, and it is the root of every vectorized
// kernel in this repo: the batch helpers here fill an output array
// with *exactly* the values N scalar next() calls would produce and
// advance the engine past them, so scalar and batched consumers of one
// stream interleave freely.
//
// Contract (checked by simd_parity_test): for every function, the
// scalar path and the AVX2 lane produce bitwise-identical output.  The
// lane uses only IEEE-exact operations (integer arithmetic; double
// add/mul, which round lane-wise exactly like scalar); nothing
// transcendental is vectorized.  Every function takes its lane
// explicitly (the _at spelling): the kernels pass the level they
// dispatch on, and the parity test walks both levels.
// uniform_unit_batch, which fabsim calls, is the one plain form; it
// dispatches on exec::simd_level().
#pragma once

#include <cstddef>
#include <cstdint>

#include "nanocost/exec/rng.hpp"
#include "nanocost/exec/simd.hpp"

namespace nanocost::exec {

/// The next `n` engine outputs, exactly as n next() calls would return
/// them; the engine advances past the batch.
void splitmix64_batch_at(SimdLevel level, SplitMix64& rng, std::uint64_t* out, std::size_t n);

/// The next `n` uniform [0, 1) doubles (uniform_unit applied n times).
void uniform_unit_batch(SplitMix64& rng, double* out, std::size_t n);
void uniform_unit_batch_at(SimdLevel level, SplitMix64& rng, double* out, std::size_t n);

/// Task seeds i0..i0+n-1 of SeedSequence::for_task(base, i), batched:
/// the per-unit seeding of every parallel kernel, which is itself one
/// splitmix64 of an affine sequence.
void for_task_batch_at(SimdLevel level, std::uint64_t base, std::uint64_t index0,
                       std::uint64_t* out, std::size_t n);

/// out[i] = splitmix64(states[i] + addend): output `addend/gamma` of n
/// *different* streams at once.  The risk batch kernel uses this to
/// draw one column (e.g. "every scenario's first uniform") across a
/// tile of scenarios.
void mix_add_batch_at(SimdLevel level, const std::uint64_t* states, std::uint64_t addend,
                      std::uint64_t* out, std::size_t n);

/// Elementwise bit-to-double mappers matching uniform_unit and the
/// gauss_pair u1 mapping: [0,1) = (b >> 11) * 2^-53, and (0,1] =
/// ((b >> 11) + 1) * 2^-53.  Exact at every level (the 53-bit integer
/// converts to double without rounding).
void u53_to_unit_batch_at(SimdLevel level, const std::uint64_t* bits, double* out, std::size_t n);
void u53_to_unit_pos_batch_at(SimdLevel level, const std::uint64_t* bits, double* out,
                              std::size_t n);

}  // namespace nanocost::exec
