// SHA-256 compression kernels behind crypto::Sha256 (internal).
//
// Sha256 compresses through whichever kernel this process picked at first
// use: the x86 SHA-extension kernel when CPUID reports SHA, SSSE3 and
// SSE4.1, otherwise the portable FIPS 180-4 loop. Nothing else selects it.
// This header exists so tests can compare the two kernels directly and
// benchmarks can record which one ran; protocol code hashes through
// sha256.h only.
#pragma once

#include <cstddef>
#include <cstdint>

namespace bftbc::crypto::sha256_kernel {

// Compresses the `n` consecutive 64-byte blocks at `blocks` into the
// chaining state H0..H7 (FIPS 180-4 §6.2).
using CompressFn = void (*)(std::uint32_t state[8], const std::uint8_t* blocks,
                            std::size_t n);

// The reference kernel: the only one on CPUs without the SHA extensions
// and in non-x86 builds.
void compress_portable(std::uint32_t state[8], const std::uint8_t* blocks,
                       std::size_t n);

// The SHA-extension kernel, or nullptr when this build or this CPU has
// none.
CompressFn sha_ni();

// The name of the kernel Sha256 uses: "sha-ni" or "portable".
const char* active_name();

}  // namespace bftbc::crypto::sha256_kernel
