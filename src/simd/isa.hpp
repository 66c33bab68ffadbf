#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace sfopt::simd {

/// Instruction-set levels the force and distance kernels are built for.
/// The numeric order is the preference order (wider is better).  Hosts
/// other than x86 run the portable scalar kernels.
enum class Isa : int {
  Scalar = 0,  ///< portable kernels, the op sequence of the vector ones
  Sse4 = 1,    ///< 2-lane double (SSE4.1: needed for roundpd)
  Avx2 = 2,    ///< 4-lane double
};

/// Canonical lower-case name ("scalar", "sse4", "avx2").
[[nodiscard]] const char* isaName(Isa isa) noexcept;

/// Parse a canonical name; returns false on an unknown string.
[[nodiscard]] bool parseIsaName(std::string_view name, Isa& out) noexcept;

/// Whether this build AND this CPU can execute the level's kernels
/// (runtime CPUID check on x86; elsewhere only Scalar).
[[nodiscard]] bool isaSupported(Isa isa) noexcept;

/// Widest supported level on this host.
[[nodiscard]] Isa detectBestIsa() noexcept;

/// Every supported level, narrowest first (always starts with Scalar).
[[nodiscard]] std::vector<Isa> supportedIsas();

/// Space-separated names of supportedIsas(), for messages and `sfopt info`.
[[nodiscard]] std::string supportedIsaNames();

/// The level the dispatch table currently routes to.  Initialized lazily
/// on first use: the SFOPT_ISA environment variable if set (throwing
/// std::runtime_error on an unknown or unsupported value), otherwise
/// detectBestIsa().
[[nodiscard]] Isa activeIsa();

/// Force a level (the `--isa` CLI flag / tests).  Throws
/// std::invalid_argument when the host does not support it.
void setActiveIsa(Isa isa);

/// Parse-and-set; the std::invalid_argument message lists the supported
/// names.  This is the single entry point behind `--isa`.
void setActiveIsaByName(std::string_view name);

}  // namespace sfopt::simd
