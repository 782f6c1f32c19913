#!/usr/bin/env bash
# Rewrite the stdout goldens under tests/golden/ (the files the Golden.*
# ctests compare against) by running every command of
# tests/golden/stdout.list from an existing build tree. A change that
# rewrites a golden says so in CHANGES.md, with the reason.
#
# Usage: scripts/update_goldens.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
while read -r name binary args; do
  case "$name" in '' | '#'*) continue ;; esac
  # shellcheck disable=SC2086  # args is a word list on purpose
  "$BUILD/$binary" $args > "tests/golden/$name.stdout"
  echo "wrote tests/golden/$name.stdout"
done < tests/golden/stdout.list
