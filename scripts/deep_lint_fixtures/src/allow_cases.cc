// Escape-hatch fixtures: a justified allow() suppresses, an unjustified
// one suppresses but is itself flagged, an unknown rule name is flagged,
// and a rule of scripts/lint.py is known.
#include <cstdio>

namespace fx {

int justified_fopen(const char* path) {
  // lint: allow(env-bypass): fixture exercises the justified escape hatch
  FILE* f = fopen(path, "rb");
  if (f != nullptr) {
    fclose(f);  // lint: allow(env-bypass): fixture, same escape hatch
  }
  return 0;
}

int unjustified_case(const char* path) {
  // lint: allow(env-bypass)
  FILE* f = fopen(path, "rb");
  if (f != nullptr) {
    fclose(f);  // lint: allow(env-bypass): fixture, justified sibling
  }
  return 0;
}

int unknown_rule_case() {
  // lint: allow(made-up-rule): names a rule that does not exist
  return 1;
}

int lint_py_rule_case() {
  // lint: allow(commit-sync): names a rule of scripts/lint.py
  return 2;
}

}  // namespace fx
