#!/usr/bin/env bash
# Readiness probe end to end: `pygb_cli --health` generates a one-element
# kernel, compiles it, dlopens it and runs it in a private scratch
# directory. It must exit 0 and print a pygb.health document (schema
# version 2) whose top-level "ok" and every stage's "ok" are true.
#
# usage: cli_health.sh <path-to-pygb_cli>
set -euo pipefail

CLI="$1"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

export PYGB_CACHE_DIR="$TMP/cache"
export TMPDIR="$TMP"   # the probe's scratch directory lands here too
unset PYGB_FAULTS

rc=0
"$CLI" --health > "$TMP/health.json" 2> "$TMP/health.err" || rc=$?
if [ "$rc" -ne 0 ]; then
  echo "FAIL: pygb_cli --health exited $rc"
  cat "$TMP/health.json" "$TMP/health.err"
  exit 1
fi

python3 - "$TMP/health.json" <<'EOF'
import json
import sys

doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "pygb.health", doc
assert doc["schema_version"] == 2, doc
assert doc["ok"] is True, doc
assert "service" not in doc, doc
stages = [s["stage"] for s in doc["stages"]]
assert stages == ["codegen", "compile", "dlopen", "run"], stages
for s in doc["stages"]:
    assert s["ok"] is True, s
print("cli_health: ok,", ", ".join(f"{s['stage']} {s['ms']} ms"
                                   for s in doc["stages"]))
EOF
