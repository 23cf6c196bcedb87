# Parent-tree extraction shared by tools/same_bytes.sh and tools/ab_gate.sh
# (sourced, not run). Both compare the working tree against a parent commit
# and need that commit's files on disk, without registering a worktree or
# changing anything in .git.

# extract_parent <ref> <dir>: resolves <ref> to a commit, stores it in
# $parent_commit, and fills <dir> with that commit's tree from
# `git archive`. The tree is re-extracted only when the commit changes, so
# a second run against the same parent reuses whatever was built from
# <dir>. Extracted files take the time of extraction, not the commit's:
# a build tree kept outside <dir> then rebuilds every file of a new
# parent, even one committed before the previous parent was built.
# Exits 2 when <ref> names no commit. Needs $root, the repository.
extract_parent() {
  parent_commit="$(git -C "$root" rev-parse --verify "$1^{commit}")" || {
    echo "$(basename "$0" .sh): unknown ref $1" >&2
    exit 2
  }
  if [ "$(cat "$2/.parent_ref" 2>/dev/null)" != "$parent_commit" ]; then
    rm -rf "$2"
    mkdir -p "$2"
    git -C "$root" archive "$parent_commit" | tar -x -m -C "$2"
    echo "$parent_commit" >"$2/.parent_ref"
  fi
}
