package guard

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocRegistersEveryFaultSite pins the "complete registry" contract: the
// fault-site section of doc.go must name every site string passed to
// guard.Inject or guard.CorruptFloat anywhere in the production tree. A new
// injection point without a registry entry fails here, not in review.
func TestDocRegistersEveryFaultSite(t *testing.T) {
	doc, err := os.ReadFile("doc.go")
	if err != nil {
		t.Fatal(err)
	}
	// Inject's first argument is a context expression (ctx, r.Context(),
	// nil, ...) and the site is the first string literal; CorruptFloat
	// takes the site first.
	injectRE := regexp.MustCompile(`guard\.Inject\([^"]*?,\s*"([^"]+)"`)
	corruptRE := regexp.MustCompile(`guard\.CorruptFloat\(\s*"([^"]+)"`)

	sites := map[string][]string{} // site -> files using it
	root := filepath.Join("..", "..")
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, re := range []*regexp.Regexp{injectRE, corruptRE} {
			for _, m := range re.FindAllSubmatch(src, -1) {
				site := string(m[1])
				sites[site] = append(sites[site], path)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sites) < 8 {
		t.Fatalf("found only %d fault sites in the tree — the call-site regex has likely rotted: %v",
			len(sites), sites)
	}
	for site, files := range sites {
		if !strings.Contains(string(doc), site) {
			t.Errorf("fault site %q (used in %v) is not registered in doc.go", site, files)
		}
	}

	// The machine-readable registry (sites.go) must match the tree exactly
	// in both directions: every site used in production code is listed, and
	// every listed site is actually used somewhere.
	listed := map[string]bool{}
	for _, site := range Sites() {
		listed[site] = true
		if _, used := sites[site]; !used {
			t.Errorf("guard.Sites() lists %q but no production code injects at it", site)
		}
	}
	for site, files := range sites {
		if !listed[site] {
			t.Errorf("fault site %q (used in %v) is missing from guard.Sites()", site, files)
		}
	}
}
