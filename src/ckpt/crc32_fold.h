// The carry-less-multiply CRC-32 tier behind ckpt::crc32 (DESIGN.md §8).
// Private to src/ckpt: crc32_pclmul.cpp (built with -mpclmul, x86-64
// only) defines the entry point, and io.cpp calls it only when the CPU
// reports PCLMULQDQ.
//
// Keep the tier's translation unit free of inline or template code with
// external linkage (standard containers, std::min): the linker may keep
// its -mpclmul copy of such code for the whole program, which then dies
// with SIGILL on a CPU without PCLMULQDQ.
#pragma once

#include <cstddef>
#include <cstdint>

namespace gluefl::ckpt::detail {

/// Folds `size` bytes into the CRC-32 register `reg` (the running value
/// between the pre- and post-inversion, as slicing-by-8 keeps it) and
/// returns the register. `size` is a multiple of 16 and at least 64.
uint32_t crc32_fold_pclmul(const uint8_t* data, size_t size, uint32_t reg);

}  // namespace gluefl::ckpt::detail
