// Contract macros: machine-checked invariants with formatted messages.
//
// The engine's headline guarantees — ACKs inside SIFS, the indexed
// medium's byte-identity with brute force, the pooled scheduler's
// generation-checked cancellation — are exact-equivalence claims. A
// violated invariant must stop the simulation at the first wrong byte,
// not surface three tables later as a subtly different Figure 6.
//
//   PW_CHECK(cond, "fmt", ...)    always on, every build type. For
//                                 cold-path contracts: API misuse,
//                                 auditor verdicts, codec bounds.
//   PW_DCHECK(cond, "fmt", ...)   compiled out unless PW_AUDIT_ENABLED
//                                 (Debug builds, or -DPW_AUDIT=1 — the
//                                 asan-ubsan preset turns it on). For
//                                 hot-path invariants the release
//                                 engine cannot afford to re-derive.
//   PW_CHECK_EQ/NE/LT/LE/GT/GE   operand-printing comparisons (and the
//   PW_DCHECK_* twins)           same, audit-only).
//   PW_UNREACHABLE("fmt", ...)   marks states the control flow must
//                                 never reach; always fatal.
//
// A failed contract formats one line —
//   file.cpp:42: PW_CHECK(a == b) failed: message
// — hands it to the installed failure handler (stderr + abort() by
// default; tests swap in a throwing handler), and never returns.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>

namespace politewifi::contract {

/// Receives the fully formatted failure line. Must not return normally —
/// it may throw (test handlers do) or terminate; if it does return,
/// fail() aborts anyway so PW_CHECK keeps its [[noreturn]] promise.
using FailureHandler = void (*)(const std::string& message);

/// Installs `handler` (nullptr restores the stderr+abort default) and
/// returns the previous one. Not thread-safe: install before spawning
/// sweep workers, which is how the death tests use it.
FailureHandler set_failure_handler(FailureHandler handler);

/// Formats and reports a failed contract. `fmt`+varargs is the optional
/// user message (printf-style); bare checks omit it.
[[noreturn]] void fail(const char* file, int line, const char* macro,
                       const char* expression, const char* fmt = nullptr, ...)
    __attribute__((format(printf, 5, 6)));

namespace detail {

/// Renders an operand for comparison-failure messages. Anything
/// ostream-printable shows its value; everything else shows "?" (the
/// expression text in the message still identifies it).
template <typename T>
std::string stringify(const T& value) {
  if constexpr (requires(std::ostream& os) { os << value; }) {
    std::ostringstream os;
    os << value;
    return os.str();
  } else {
    return "?";
  }
}

template <typename A, typename B>
[[noreturn]] void fail_op(const char* file, int line, const char* macro,
                          const char* expression, const A& a, const B& b) {
  fail(file, line, macro, expression, "lhs=%s rhs=%s", stringify(a).c_str(),
       stringify(b).c_str());
}

inline thread_local int audit_depth = 0;

}  // namespace detail

/// Marks the enclosing scope as an auditor's work. Audits may allocate
/// and re-parse freely; a test that counts the program's own work (the
/// steady-state allocation test) asks in_audit() and leaves them out,
/// so it reads the same in audit builds.
class AuditScope {
 public:
  AuditScope() { ++detail::audit_depth; }
  ~AuditScope() { --detail::audit_depth; }
  AuditScope(const AuditScope&) = delete;
  AuditScope& operator=(const AuditScope&) = delete;
};

/// True while the calling thread is inside an AuditScope.
inline bool in_audit() { return detail::audit_depth > 0; }

}  // namespace politewifi::contract

// Audit mode: Debug builds get it implicitly; any build can force it with
// -DPW_AUDIT=1 (the asan-ubsan preset does, so the sanitizer CI leg also
// exercises every PW_DCHECK and periodic auditor).
#if defined(PW_AUDIT) || !defined(NDEBUG)
#define PW_AUDIT_ENABLED 1
#else
#define PW_AUDIT_ENABLED 0
#endif

#define PW_CHECK(cond, ...)                                              \
  do {                                                                   \
    if (__builtin_expect(!(cond), 0)) {                                  \
      ::politewifi::contract::fail(__FILE__, __LINE__, "PW_CHECK", #cond \
                                   __VA_OPT__(, ) __VA_ARGS__);          \
    }                                                                    \
  } while (0)

#define PW_UNREACHABLE(...)                                             \
  ::politewifi::contract::fail(__FILE__, __LINE__, "PW_UNREACHABLE",    \
                               "reached" __VA_OPT__(, ) __VA_ARGS__)

// Comparison checks print both operand values on failure. Operands are
// evaluated exactly once.
#define PW_CHECK_OP_(macro, op, a, b)                                       \
  do {                                                                      \
    const auto& pw_lhs_ = (a);                                              \
    const auto& pw_rhs_ = (b);                                              \
    if (__builtin_expect(!(pw_lhs_ op pw_rhs_), 0)) {                       \
      ::politewifi::contract::detail::fail_op(__FILE__, __LINE__, macro,    \
                                              #a " " #op " " #b, pw_lhs_,   \
                                              pw_rhs_);                     \
    }                                                                       \
  } while (0)

#define PW_CHECK_EQ(a, b) PW_CHECK_OP_("PW_CHECK_EQ", ==, a, b)
#define PW_CHECK_NE(a, b) PW_CHECK_OP_("PW_CHECK_NE", !=, a, b)
#define PW_CHECK_LT(a, b) PW_CHECK_OP_("PW_CHECK_LT", <, a, b)
#define PW_CHECK_LE(a, b) PW_CHECK_OP_("PW_CHECK_LE", <=, a, b)
#define PW_CHECK_GT(a, b) PW_CHECK_OP_("PW_CHECK_GT", >, a, b)
#define PW_CHECK_GE(a, b) PW_CHECK_OP_("PW_CHECK_GE", >=, a, b)

#if PW_AUDIT_ENABLED
#define PW_DCHECK(cond, ...) PW_CHECK(cond __VA_OPT__(, ) __VA_ARGS__)
#define PW_DCHECK_EQ(a, b) PW_CHECK_EQ(a, b)
#define PW_DCHECK_NE(a, b) PW_CHECK_NE(a, b)
#define PW_DCHECK_LT(a, b) PW_CHECK_LT(a, b)
#define PW_DCHECK_LE(a, b) PW_CHECK_LE(a, b)
#define PW_DCHECK_GT(a, b) PW_CHECK_GT(a, b)
#define PW_DCHECK_GE(a, b) PW_CHECK_GE(a, b)
#else
// Compiled out: the condition stays syntactically checked (and ODR-used
// symbols stay referenced) but is never evaluated — release hot paths pay
// zero instructions.
#define PW_DCHECK(cond, ...) \
  do {                       \
    if (false) {             \
      (void)(cond);          \
    }                        \
  } while (0)
#define PW_DCHECK_EQ(a, b) PW_DCHECK((a) == (b))
#define PW_DCHECK_NE(a, b) PW_DCHECK((a) != (b))
#define PW_DCHECK_LT(a, b) PW_DCHECK((a) < (b))
#define PW_DCHECK_LE(a, b) PW_DCHECK((a) <= (b))
#define PW_DCHECK_GT(a, b) PW_DCHECK((a) > (b))
#define PW_DCHECK_GE(a, b) PW_DCHECK((a) >= (b))
#endif
