package analysis_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// TestJSONGolden pins the -json output contract end to end: field
// names, field order, indentation, and the (file, line, col,
// analyzer) sort across packages. cmd/arcvet encodes Result.
// Diagnostics with exactly this encoder configuration, so a change
// that shifts the machine-readable schema must update the golden
// file deliberately (go test ./internal/analysis -run JSONGolden
// -update).
func TestJSONGolden(t *testing.T) {
	root := writeFixture(t, allocGuardFixture)
	res := analyzeResult(t, root, false)

	// Fixture roots are temp directories; rewrite them to a stable
	// placeholder so the golden file is machine-independent.
	for i := range res.Diagnostics {
		rel, err := filepath.Rel(root, res.Diagnostics[i].File)
		if err != nil {
			t.Fatal(err)
		}
		res.Diagnostics[i].File = "$FIXTURE/" + filepath.ToSlash(rel)
	}

	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res.Diagnostics); err != nil {
		t.Fatal(err)
	}

	goldenPath := filepath.Join("testdata", "json_golden.json")
	if *updateGolden {
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := buf.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("-json output drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s\nRe-run with -update if the change is intentional.", got, want)
	}

	// The golden file itself must honor the documented field set.
	var decoded []map[string]any
	if err := json.Unmarshal(want, &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded) == 0 {
		t.Fatal("golden file has no findings; the fixture should produce some")
	}
	for _, d := range decoded {
		for _, key := range []string{"analyzer", "message", "file", "line", "col"} {
			if _, ok := d[key]; !ok {
				t.Fatalf("finding %v lacks required field %q", d, key)
			}
		}
		if msg, _ := d["message"].(string); strings.TrimSpace(msg) == "" {
			t.Fatalf("finding %v has an empty message", d)
		}
	}
}
