package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"datasynth/internal/stats"
	"datasynth/internal/table"
)

// digest maps each output file name to the hex SHA-256 of its bytes.
type digest map[string]string

// hashDir digests every regular file in dir.
func hashDir(dir string) (digest, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	d := digest{}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		sum, err := hashFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		d[e.Name()] = sum
	}
	if len(d) == 0 {
		return nil, fmt.Errorf("gate: no output files in %s", dir)
	}
	return d, nil
}

func hashFile(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("hashing %s: %w", path, err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func hashBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// compare reports the first difference between got and want.
func (want digest) compare(got digest) error {
	names := make([]string, 0, len(want))
	for n := range want {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if got[n] != want[n] {
			return fmt.Errorf("gate: %s has sha256 %.12s, want %.12s", n, got[n], want[n])
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("gate: %d output files, want %d", len(got), len(want))
	}
	return nil
}

// checkRows checks the row count of every file the schema fixes, and
// that each pair of files in equal has as many rows as the other.
func checkRows(dir, format string, want map[string]int64, equal [][2]string) error {
	for name, n := range want {
		got, err := countRows(filepath.Join(dir, name), format)
		if err != nil {
			return err
		}
		if got != n {
			return fmt.Errorf("gate: %s has %d rows, schema says %d", name, got, n)
		}
	}
	for _, pair := range equal {
		a, err := countRows(filepath.Join(dir, pair[0]), format)
		if err != nil {
			return err
		}
		b, err := countRows(filepath.Join(dir, pair[1]), format)
		if err != nil {
			return err
		}
		if a != b {
			return fmt.Errorf("gate: %s has %d rows and %s %d, schema says equal", pair[0], a, pair[1], b)
		}
	}
	return nil
}

func countRows(path, format string) (int64, error) {
	if format == "columnar" {
		ct, err := table.ReadColumnarFile(path)
		if err != nil {
			return 0, err
		}
		return ct.Rows, nil
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	// One header line, then one line per row.
	return int64(bytes.Count(b, []byte{'\n'})) - 1, nil
}

// matchL1 computes the paper's fidelity metric from exported files:
// the L1 distance between the homophily target over the label
// frequencies and the empirical joint of the edge file's endpoints.
func matchL1(dir, format, nodeFile, column, edgeFile string, homophily float64) (float64, error) {
	labels, k, err := readLabels(filepath.Join(dir, nodeFile), format, column)
	if err != nil {
		return 0, err
	}
	et, err := readEdges(filepath.Join(dir, edgeFile), format)
	if err != nil {
		return 0, err
	}
	freq, err := stats.Frequencies(labels, k)
	if err != nil {
		return 0, err
	}
	target, err := stats.HomophilyJoint(freq, homophily)
	if err != nil {
		return 0, err
	}
	observed, err := stats.EmpiricalJoint(et, labels, k)
	if err != nil {
		return 0, err
	}
	return stats.L1(target, observed)
}

// readLabels numbers a string column's distinct values in order of
// first appearance; L1 does not depend on the numbering.
func readLabels(path, format, column string) ([]int64, int, error) {
	var values []string
	if format == "columnar" {
		ct, err := table.ReadColumnarFile(path)
		if err != nil {
			return nil, 0, err
		}
		for _, pt := range ct.Props {
			if strings.HasSuffix(pt.Name, "."+column) {
				values = pt.Strings()
			}
		}
		if values == nil {
			return nil, 0, fmt.Errorf("%s: no string column %q", path, column)
		}
	} else {
		col, err := readCSVColumns(path, column)
		if err != nil {
			return nil, 0, err
		}
		values = col[0]
	}
	ids := map[string]int64{}
	labels := make([]int64, len(values))
	for i, v := range values {
		id, ok := ids[v]
		if !ok {
			id = int64(len(ids))
			ids[v] = id
		}
		labels[i] = id
	}
	return labels, len(ids), nil
}

func readEdges(path, format string) (*table.EdgeTable, error) {
	if format == "columnar" {
		ct, err := table.ReadColumnarFile(path)
		if err != nil {
			return nil, err
		}
		if ct.Edges == nil {
			return nil, fmt.Errorf("%s: not an edge file", path)
		}
		return ct.Edges, nil
	}
	cols, err := readCSVColumns(path, "tail", "head")
	if err != nil {
		return nil, err
	}
	et := table.NewEdgeTable(filepath.Base(path), int64(len(cols[0])))
	for i := range cols[0] {
		t, err1 := strconv.ParseInt(cols[0][i], 10, 64)
		h, err2 := strconv.ParseInt(cols[1][i], 10, 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("%s: row %d: bad endpoint", path, i+1)
		}
		et.Add(t, h)
	}
	return et, nil
}

// readCSVColumns returns the named columns of a CSV file whose fields
// hold no quoted commas (ids, dates and dictionary words).
func readCSVColumns(path string, names ...string) ([][]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		return nil, fmt.Errorf("%s: empty file", path)
	}
	header := strings.Split(sc.Text(), ",")
	idx := make([]int, len(names))
	for i, n := range names {
		idx[i] = -1
		for j, h := range header {
			if h == n {
				idx[i] = j
			}
		}
		if idx[i] < 0 {
			return nil, fmt.Errorf("%s: no column %q", path, n)
		}
	}
	out := make([][]string, len(names))
	for sc.Scan() {
		fields := strings.Split(sc.Text(), ",")
		for i, j := range idx {
			if j >= len(fields) {
				return nil, fmt.Errorf("%s: short row", path)
			}
			out[i] = append(out[i], fields[j])
		}
	}
	return out, sc.Err()
}
