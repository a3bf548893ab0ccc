package main

import (
	"os"
	"path/filepath"
	"testing"
)

func writeFiles(t *testing.T, dir string, files map[string]string) {
	t.Helper()
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// A single flipped byte in any output file must fail the gate.
func TestGateCatchesFlippedByte(t *testing.T) {
	dir := t.TempDir()
	writeFiles(t, dir, map[string]string{
		"nodes_Person.csv": "id,country\n0,Chile\n1,Peru\n2,Chile\n",
		"edges_knows.csv":  "id,tail,head\n0,0,1\n1,0,2\n",
	})
	ref, err := hashDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	same, err := hashDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.compare(same); err != nil {
		t.Fatalf("identical output failed the gate: %v", err)
	}
	path := filepath.Join(dir, "edges_knows.csv")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-2] ^= 1
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	flipped, err := hashDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.compare(flipped); err == nil {
		t.Fatal("a flipped byte passed the gate")
	}
}

func TestDownloadGateCatchesFlippedByte(t *testing.T) {
	body := []byte("id,tail,head\n0,0,1\n")
	v := jobView{ID: "j"}
	v.Files = append(v.Files, struct {
		Name   string `json:"name"`
		Bytes  int64  `json:"bytes"`
		SHA256 string `json:"sha256"`
	}{Name: "edges_knows.csv", Bytes: int64(len(body)), SHA256: hashBytes(body)})
	if err := checkDownload(v, "edges_knows.csv", body, hashBytes(body)); err != nil {
		t.Fatalf("intact download failed the gate: %v", err)
	}
	bad := append([]byte(nil), body...)
	bad[5] ^= 0x20
	if err := checkDownload(v, "edges_knows.csv", bad, ""); err == nil {
		t.Fatal("a download differing from its manifest passed the gate")
	}
	// A download matching a tampered manifest still differs from the
	// direct export.
	v.Files[0].SHA256 = hashBytes(bad)
	if err := checkDownload(v, "edges_knows.csv", bad, hashBytes(body)); err == nil {
		t.Fatal("a download differing from the direct export passed the gate")
	}
}

func TestRowCountGate(t *testing.T) {
	dir := t.TempDir()
	writeFiles(t, dir, map[string]string{
		"nodes_Person.csv":  "id,country\n0,Chile\n1,Peru\n",
		"nodes_Message.csv": "id,topic\n0,Art\n1,Go\n",
		"edges_creates.csv": "id,tail,head\n0,0,0\n1,1,1\n",
	})
	equal := [][2]string{{"nodes_Message.csv", "edges_creates.csv"}}
	if err := checkRows(dir, "csv", map[string]int64{"nodes_Person.csv": 2}, equal); err != nil {
		t.Fatal(err)
	}
	if err := checkRows(dir, "csv", map[string]int64{"nodes_Person.csv": 3}, equal); err == nil {
		t.Fatal("a wrong row count passed the gate")
	}
	// A dropped message leaves one creates edge without its Message.
	writeFiles(t, dir, map[string]string{"nodes_Message.csv": "id,topic\n0,Art\n"})
	if err := checkRows(dir, "csv", map[string]int64{"nodes_Person.csv": 2}, equal); err == nil {
		t.Fatal("a Message count differing from the creates edge count passed the gate")
	}
}

func TestMatchL1FromFiles(t *testing.T) {
	dir := t.TempDir()
	// Two groups of two; every edge joins same-group nodes, so with
	// homophily 1 the observed joint equals the target.
	writeFiles(t, dir, map[string]string{
		"nodes_Person.csv": "id,country\n0,Chile\n1,Peru\n2,Chile\n3,Peru\n",
		"edges_knows.csv":  "id,tail,head\n0,0,2\n1,1,3\n",
	})
	l1, err := matchL1(dir, "csv", "nodes_Person.csv", "country", "edges_knows.csv", 1)
	if err != nil {
		t.Fatal(err)
	}
	if l1 > 1e-12 {
		t.Fatalf("L1 = %v, want 0", l1)
	}
	l1, err = matchL1(dir, "csv", "nodes_Person.csv", "country", "edges_knows.csv", 0)
	if err != nil {
		t.Fatal(err)
	}
	if l1 < 1.99 {
		t.Fatalf("L1 = %v, want 2 (disjoint)", l1)
	}
}
