package obs

import (
	"os"
	"path/filepath"
	"strings"
)

// GitRev resolves the current commit hash (short, 12 hex chars) by walking
// up from start looking for a .git directory and reading HEAD, loose refs
// and packed-refs directly — no git binary required. It returns "unknown"
// when no revision can be resolved.
func GitRev(start string) string {
	dir, err := filepath.Abs(start)
	if err != nil {
		return "unknown"
	}
	for {
		gitDir := filepath.Join(dir, ".git")
		if fi, err := os.Stat(gitDir); err == nil && fi.IsDir() {
			if rev := resolveHead(gitDir); rev != "" {
				return rev
			}
			return "unknown"
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "unknown"
		}
		dir = parent
	}
}

func resolveHead(gitDir string) string {
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return ""
	}
	line := strings.TrimSpace(string(head))
	if !strings.HasPrefix(line, "ref: ") {
		return shortHash(line)
	}
	ref := strings.TrimSpace(strings.TrimPrefix(line, "ref: "))
	if data, err := os.ReadFile(filepath.Join(gitDir, filepath.FromSlash(ref))); err == nil {
		return shortHash(strings.TrimSpace(string(data)))
	}
	// Loose ref missing: look in packed-refs.
	packed, err := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return ""
	}
	for _, l := range strings.Split(string(packed), "\n") {
		fields := strings.Fields(l)
		if len(fields) == 2 && fields[1] == ref {
			return shortHash(fields[0])
		}
	}
	return ""
}

func shortHash(h string) string {
	if len(h) < 12 {
		return ""
	}
	for _, r := range h {
		if !(r >= '0' && r <= '9' || r >= 'a' && r <= 'f') {
			return ""
		}
	}
	return h[:12]
}
