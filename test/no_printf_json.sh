#!/usr/bin/env bash
# JSON is written only through the Json codec (lib/json). Fails when a
# source file under the given directories builds JSON by hand: a format
# string with a quoted key followed by a conversion, or a private string
# escaper.
#   usage: no_printf_json.sh DIR...
set -u
if grep -rnE --include='*.ml' --include='*.mli' \
  '\\"[a-z_]+\\": *%|json_escape' "$@"; then
  echo "hand-built JSON found above: encode through Json instead" >&2
  exit 1
fi
