#!/bin/bash
# Toggle the workspace between real registry deps and local typecheck stubs.
# Usage: patch.sh on|off
set -euo pipefail
cd "$(dirname "$0")/.."

case "${1:-}" in
  on)
    cp Cargo.toml .typecheck/Cargo.toml.real
    python3 - <<'EOF'
import re
src = open('Cargo.toml').read()
repl = {
    'rand': 'rand = { path = ".typecheck/rand" }',
    'proptest': 'proptest = { path = ".typecheck/proptest" }',
    'crossbeam': '# crossbeam stubbed out for offline typecheck',
    'parking_lot': 'parking_lot = { path = ".typecheck/parking_lot" }',
    'bytes': 'bytes = { path = ".typecheck/bytes" }',
    'serde': 'serde = { path = ".typecheck/serde" }',
}
out = []
for line in src.splitlines():
    m = re.match(r'^(\w+) = ', line)
    if m and m.group(1) in repl:
        out.append(repl[m.group(1)])
    else:
        out.append(line)
open('Cargo.toml', 'w').write('\n'.join(out) + '\n')
EOF
    echo "stubs ON"
    ;;
  off)
    mv .typecheck/Cargo.toml.real Cargo.toml
    echo "stubs OFF"
    ;;
  *)
    echo "usage: $0 on|off" >&2
    exit 1
    ;;
esac
