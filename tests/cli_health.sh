#!/usr/bin/env bash
# Readiness probe end to end: `pygb_cli --health` generates a one-element
# kernel, compiles it, dlopens it and runs it in a private scratch
# directory. It must exit 0 and print a pygb.health document (schema
# version 3) whose top-level "ok" and every stage's "ok" are true, and
# whose "config" array lists every knob of config.hpp's table, in order:
# PYGB_CACHE_DIR from the environment, every other knob at its default.
#
# usage: cli_health.sh <path-to-pygb_cli> <path-to-src/pygb/config.hpp>
set -euo pipefail

CLI="$1"
CONFIG_HPP="$2"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# Only the cache directory is set; inherited knobs would not be defaults.
for var in $(compgen -e); do
  case "$var" in PYGB_*|GBTL_*) unset "$var" ;; esac
done
export PYGB_CACHE_DIR="$TMP/cache"
export TMPDIR="$TMP"   # the probe's scratch directory lands here too

rc=0
"$CLI" --health > "$TMP/health.json" 2> "$TMP/health.err" || rc=$?
if [ "$rc" -ne 0 ]; then
  echo "FAIL: pygb_cli --health exited $rc"
  cat "$TMP/health.json" "$TMP/health.err"
  exit 1
fi

python3 - "$TMP/health.json" "$CONFIG_HPP" "$PYGB_CACHE_DIR" <<'EOF'
import json
import re
import sys

doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "pygb.health", doc
assert doc["schema_version"] == 3, doc
assert doc["ok"] is True, doc
assert "service" not in doc, doc
stages = [s["stage"] for s in doc["stages"]]
assert stages == ["codegen", "compile", "dlopen", "run"], stages
for s in doc["stages"]:
    assert s["ok"] is True, s
rows = re.findall(r'^\s*\{"((?:PYGB|GBTL)_[A-Z0-9_]+)"',
                  open(sys.argv[2]).read(), re.M)
assert [c["name"] for c in doc["config"]] == rows, (doc["config"], rows)
for c in doc["config"]:
    if c["name"] == "PYGB_CACHE_DIR":
        assert c == {"name": c["name"], "value": sys.argv[3],
                     "source": "env"}, c
    else:
        assert c["source"] == "default" and "error" not in c, c
print("cli_health: ok,", ", ".join(f"{s['stage']} {s['ms']} ms"
                                   for s in doc["stages"]))
EOF
