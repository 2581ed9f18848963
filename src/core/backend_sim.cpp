// Backend-kind parsing and TCU_BACKEND resolution (core/backend.hpp).
//
// The sim backend itself is a header template (SimBackend over
// reference_gemm); this TU holds the non-template selection machinery
// shared by the env var, the CLI's --backend flag, and the tests.

#include "core/backend.hpp"

#include <cstdlib>

namespace tcu {

BackendKind parse_backend_kind(const std::string& name) {
  if (name == "sim") return BackendKind::kSim;
  if (name == "micro") return BackendKind::kMicro;
  if (name == "blas") return BackendKind::kBlas;
  throw std::invalid_argument("unknown gemm backend '" + name +
                              "' (expected sim|micro|blas)");
}

const char* backend_kind_name(BackendKind kind) {
  switch (kind) {
    case BackendKind::kSim:
      return "sim";
    case BackendKind::kMicro:
      return "micro";
    case BackendKind::kBlas:
      return "blas";
    case BackendKind::kEngine:
      return "engine";
    case BackendKind::kDefault:
      return "default";
  }
  return "?";
}

BackendKind resolve_backend_kind(BackendKind kind) {
  if (kind != BackendKind::kDefault) return kind;
  const char* env = std::getenv("TCU_BACKEND");
  if (env == nullptr || *env == '\0') return BackendKind::kMicro;
  return parse_backend_kind(env);
}

bool backend_available(BackendKind kind) {
  switch (resolve_backend_kind(kind)) {
    case BackendKind::kBlas:
#ifdef TCU_BLAS
      return true;
#else
      return false;
#endif
    case BackendKind::kSim:
    case BackendKind::kMicro:
    case BackendKind::kEngine:
      return true;
    case BackendKind::kDefault:
      break;
  }
  return false;
}

}  // namespace tcu
