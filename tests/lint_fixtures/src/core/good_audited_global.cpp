// Fixture: a mutex-confined global written from inside a parallel task body.
// The justified allow() (a two-line comment above the declaration) audits
// the global, so it leaves the global-mutable-state inventory and the task
// body's call chain to the write raises nothing. This is the pattern
// src/core/parallel.cpp uses for its pool singletons.
#include <mutex>

namespace wild5g::fixture_audited_global {

std::mutex g_audit_mutex;
// wild5g-lint: allow(global-mutable-state) every read and write holds
// g_audit_mutex
int g_audit_total = 0;

void audit_record(int v) {
  const std::lock_guard<std::mutex> lock(g_audit_mutex);
  g_audit_total += v;
}

int audit_entry(int v) {
  audit_record(v);
  return v;
}

template <typename F>
void parallel_map(int n, F f);

void audit_demo() {
  parallel_map(8, [&](int i) {
    int x = audit_entry(i);
    (void)x;
  });
}

}  // namespace wild5g::fixture_audited_global
