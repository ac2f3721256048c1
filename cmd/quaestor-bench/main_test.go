package main

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// TestDocCommentListsEveryExperiment: the package comment's
// "Experiments:" paragraph names exactly the ids -exp accepts, in order.
func TestDocCommentListsEveryExperiment(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	_, after, ok := strings.Cut(string(src), "// Experiments:")
	if !ok {
		t.Fatal("package comment has no Experiments: paragraph")
	}
	lines := strings.Split(after, "\n")
	ids := strings.Fields(lines[0])
	for _, line := range lines[1:] {
		if !strings.HasPrefix(line, "//") {
			break
		}
		ids = append(ids, strings.Fields(strings.TrimPrefix(line, "//"))...)
	}
	if want := append(slices.Clone(order), "all"); !slices.Equal(ids, want) {
		t.Errorf("package comment lists %v, -exp accepts %v", ids, want)
	}
}
