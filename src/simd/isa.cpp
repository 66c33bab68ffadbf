#include "simd/isa.hpp"

#include <atomic>
#include <cstdlib>
#include <stdexcept>

namespace sfopt::simd {

namespace {

/// -1 = not yet initialized; otherwise the int value of the active Isa.
std::atomic<int> g_activeIsa{-1};

[[noreturn]] void throwUnsupported(std::string_view name, bool fromEnv) {
  const std::string msg = std::string(fromEnv ? "SFOPT_ISA" : "--isa") + ": \"" +
                          std::string(name) + "\" is not available on this host (supported: " +
                          supportedIsaNames() + ")";
  if (fromEnv) throw std::runtime_error(msg);
  throw std::invalid_argument(msg);
}

[[noreturn]] void throwUnknown(std::string_view name, bool fromEnv) {
  const std::string msg = std::string(fromEnv ? "SFOPT_ISA" : "--isa") + ": unknown ISA \"" +
                          std::string(name) + "\" (supported: " + supportedIsaNames() + ")";
  if (fromEnv) throw std::runtime_error(msg);
  throw std::invalid_argument(msg);
}

Isa parseOrThrow(std::string_view name, bool fromEnv) {
  Isa isa;
  if (!parseIsaName(name, isa)) throwUnknown(name, fromEnv);
  if (!isaSupported(isa)) throwUnsupported(name, fromEnv);
  return isa;
}

}  // namespace

const char* isaName(Isa isa) noexcept {
  switch (isa) {
    case Isa::Scalar:
      return "scalar";
    case Isa::Sse4:
      return "sse4";
    case Isa::Avx2:
      return "avx2";
  }
  return "unknown";
}

bool parseIsaName(std::string_view name, Isa& out) noexcept {
  if (name == "scalar") {
    out = Isa::Scalar;
  } else if (name == "sse4") {
    out = Isa::Sse4;
  } else if (name == "avx2") {
    out = Isa::Avx2;
  } else {
    return false;
  }
  return true;
}

bool isaSupported(Isa isa) noexcept {
  switch (isa) {
    case Isa::Scalar:
      return true;
#if defined(__x86_64__) || defined(__i386__)
    case Isa::Sse4:
      return __builtin_cpu_supports("sse4.1") != 0;
    case Isa::Avx2:
      return __builtin_cpu_supports("avx2") != 0;
#else
    case Isa::Sse4:
    case Isa::Avx2:
      return false;
#endif
  }
  return false;
}

Isa detectBestIsa() noexcept {
  if (isaSupported(Isa::Avx2)) return Isa::Avx2;
  if (isaSupported(Isa::Sse4)) return Isa::Sse4;
  return Isa::Scalar;
}

std::vector<Isa> supportedIsas() {
  std::vector<Isa> out;
  for (Isa isa : {Isa::Scalar, Isa::Sse4, Isa::Avx2}) {
    if (isaSupported(isa)) out.push_back(isa);
  }
  return out;
}

std::string supportedIsaNames() {
  std::string names;
  for (Isa isa : supportedIsas()) {
    if (!names.empty()) names += ' ';
    names += isaName(isa);
  }
  return names;
}

Isa activeIsa() {
  const int cur = g_activeIsa.load(std::memory_order_acquire);
  if (cur >= 0) return static_cast<Isa>(cur);
  Isa init = detectBestIsa();
  if (const char* env = std::getenv("SFOPT_ISA"); env != nullptr && *env != '\0') {
    init = parseOrThrow(env, /*fromEnv=*/true);
  }
  int expected = -1;
  g_activeIsa.compare_exchange_strong(expected, static_cast<int>(init),
                                      std::memory_order_acq_rel);
  return static_cast<Isa>(g_activeIsa.load(std::memory_order_acquire));
}

void setActiveIsa(Isa isa) {
  if (!isaSupported(isa)) throwUnsupported(isaName(isa), /*fromEnv=*/false);
  g_activeIsa.store(static_cast<int>(isa), std::memory_order_release);
}

void setActiveIsaByName(std::string_view name) {
  setActiveIsa(parseOrThrow(name, /*fromEnv=*/false));
}

}  // namespace sfopt::simd
