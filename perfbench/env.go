package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// envInfo records where a result was measured. Commit comes from the
// build's VCS stamp and is "unknown" in a checkout without git metadata;
// SourceDigest identifies the simulator sources either way.
type envInfo struct {
	NumCPU       int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	Commit       string `json:"commit"`
	SourceDigest string `json:"source_digest"`
}

func environment(repo string) (envInfo, error) {
	env := envInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			env.Commit = rev
			if dirty {
				env.Commit += "+dirty"
			}
		}
	}
	d, err := sourceDigest(repo)
	if err != nil {
		return env, err
	}
	env.SourceDigest = d
	return env, nil
}

// sourceDigest hashes go.mod and every .go file of the module at repo,
// skipping this benchmark's own directory and dot-directories (build
// outputs, VCS metadata).
func sourceDigest(repo string) (string, error) {
	if _, err := os.Stat(filepath.Join(repo, "go.mod")); err != nil {
		return "", fmt.Errorf("source tree: %w", err)
	}
	var files []string
	err := filepath.WalkDir(repo, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(repo, path)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || rel == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(rel, ".go") || rel == "go.mod" {
			files = append(files, rel)
		}
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("source tree: %w", err)
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join(repo, f))
		if err != nil {
			return "", fmt.Errorf("source tree: %w", err)
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
