// Command doccheck is the `make doc-check` gate: it keeps the repository's
// documentation from rotting by verifying five invariants that are cheap
// to break silently —
//
//  1. every relative link in the markdown files resolves to a file or
//     directory that actually exists (anchors after '#' are ignored),
//  2. every `go run ./cmd/<name>` in the markdown names a command
//     directory that exists,
//  3. every `make <target>` in the markdown names a Makefile target
//     (CHANGES.md, the history, aside),
//  4. every internal/ package carries a package comment in a non-test file,
//     so `go doc repro/internal/<pkg>` always says something, and
//  5. the layer diagram in ARCHITECTURE.md names every internal/ package
//     and no package that does not exist.
//
// It prints one line per violation and exits 1 if there are any.
package main

import (
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// mdLink matches inline markdown links and images: [text](target).
// Reference-style definitions and autolinks are rare in this repo and
// external (http) targets are skipped below anyway.
var mdLink = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)[^)]*\)`)

// goRunCmd matches a `go run ./cmd/<name>` invocation. Placeholders such
// as ./cmd/<tool> do not match.
var goRunCmd = regexp.MustCompile(`go run \./cmd/([A-Za-z0-9_-]+)`)

// makeCmd matches `make <target>` outside fenced code, in a backticked
// span, and inside it, at the start of a line. Placeholders such as
// `make X` do not match.
var makeCmd = [2]*regexp.Regexp{
	regexp.MustCompile("`make ([a-z][a-z0-9-]*)"),
	regexp.MustCompile(`(?m)^\s*(?:\$ )?make ([a-z][a-z0-9-]*)`),
}

// diagramPkg matches a package named in the layer diagram.
var diagramPkg = regexp.MustCompile(`internal/([A-Za-z0-9_]+)`)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	bad := 0
	bad += checkLinks(root)
	bad += checkCommands(root)
	bad += checkMakeTargets(root)
	bad += checkPackageComments(root)
	bad += checkDiagram(root)
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "doc-check: %d problem(s)\n", bad)
		os.Exit(1)
	}
	fmt.Println("doc-check: all markdown links, commands and make targets resolve; all internal packages documented and in the layer diagram")
}

// walkMarkdown calls check with every .md file under root and its
// contents, and returns the violations check counted.
func walkMarkdown(root string, check func(path, text string) int) int {
	bad := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".md") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		bad += check(path, string(data))
		return nil
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "doc-check: walk: %v\n", err)
		return bad + 1
	}
	return bad
}

// checkLinks verifies that each relative link target in the markdown
// exists on disk, resolved against the file's own directory.
func checkLinks(root string) int {
	return walkMarkdown(root, func(path, text string) int {
		bad := 0
		for _, m := range mdLink.FindAllStringSubmatch(text, -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue
			}
			target = strings.SplitN(target, "#", 2)[0]
			if target == "" { // pure in-page anchor
				continue
			}
			resolved := filepath.Join(filepath.Dir(path), target)
			if _, err := os.Stat(resolved); err != nil {
				fmt.Fprintf(os.Stderr, "%s: broken link %q (%s does not exist)\n",
					path, m[1], resolved)
				bad++
			}
		}
		return bad
	})
}

// checkCommands verifies that each `go run ./cmd/<name>` in the markdown
// names a directory under root's cmd/.
func checkCommands(root string) int {
	return walkMarkdown(root, func(path, text string) int {
		bad := 0
		for _, m := range goRunCmd.FindAllStringSubmatch(text, -1) {
			if _, err := os.Stat(filepath.Join(root, "cmd", m[1])); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %q names a missing command (cmd/%s does not exist)\n",
					path, m[0], m[1])
				bad++
			}
		}
		return bad
	})
}

// checkMakeTargets verifies that each `make <target>` in the markdown
// names a target of root's Makefile.
func checkMakeTargets(root string) int {
	mk, err := os.ReadFile(filepath.Join(root, "Makefile"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "doc-check: %v\n", err)
		return 1
	}
	return walkMarkdown(root, func(path, text string) int {
		bad := 0
		for i, part := range strings.Split(text, "```") { // odd parts are fenced
			for _, m := range makeCmd[i%2].FindAllStringSubmatch(part, -1) {
				if filepath.Base(path) != "CHANGES.md" && !strings.Contains("\n"+string(mk), "\n"+m[1]+":") {
					fmt.Fprintf(os.Stderr, "%s: \"make %s\" names a missing Makefile target\n", path, m[1])
					bad++
				}
			}
		}
		return bad
	})
}

// checkPackageComments parses each internal/<pkg> directory (non-test
// files only, comments retained) and requires a package doc comment.
func checkPackageComments(root string) int {
	dirs, err := os.ReadDir(filepath.Join(root, "internal"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "doc-check: %v\n", err)
		return 1
	}
	bad := 0
	fset := token.NewFileSet()
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		dir := filepath.Join(root, "internal", d.Name())
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments|parser.PackageClauseOnly)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: parse: %v\n", dir, err)
			bad++
			continue
		}
		documented := false
		any := false
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				any = true
				if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
					documented = true
				}
			}
		}
		if !any {
			fmt.Fprintf(os.Stderr, "%s: no non-test Go files — add a doc.go\n", dir)
			bad++
		} else if !documented {
			fmt.Fprintf(os.Stderr, "%s: missing package comment\n", dir)
			bad++
		}
	}
	return bad
}

// checkDiagram compares the packages named in ARCHITECTURE.md's layer
// diagram (the first code block after its "## Layer diagram" heading)
// with the directories under internal/: each side must cover the other.
func checkDiagram(root string) int {
	path := filepath.Join(root, "ARCHITECTURE.md")
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doc-check: %v\n", err)
		return 1
	}
	_, after, _ := strings.Cut(string(data), "## Layer diagram")
	_, block, ok := strings.Cut(after, "```")
	block, _, closed := strings.Cut(block, "```")
	if !ok || !closed {
		fmt.Fprintf(os.Stderr, "%s: no layer diagram (a code block after \"## Layer diagram\")\n", path)
		return 1
	}
	named := map[string]bool{}
	bad := 0
	for _, m := range diagramPkg.FindAllStringSubmatch(block, -1) {
		if named[m[1]] {
			continue
		}
		named[m[1]] = true
		if fi, err := os.Stat(filepath.Join(root, "internal", m[1])); err != nil || !fi.IsDir() {
			fmt.Fprintf(os.Stderr, "%s: layer diagram names internal/%s, which does not exist\n", path, m[1])
			bad++
		}
	}
	dirs, err := os.ReadDir(filepath.Join(root, "internal"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "doc-check: %v\n", err)
		return bad + 1
	}
	for _, d := range dirs {
		if d.IsDir() && !named[d.Name()] {
			fmt.Fprintf(os.Stderr, "%s: layer diagram omits internal/%s\n", path, d.Name())
			bad++
		}
	}
	return bad
}
