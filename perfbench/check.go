package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"sync"
)

// tally counts operations and failures. An operation is one grid item,
// one experiment artifact, or one service batch; a failure is an item
// error, an HTTP non-2xx response, a short result stream, or an output
// that does not match its reference. It is safe for concurrent use.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
}

// add records n attempted operations of which bad failed, and logs why
// when bad > 0.
func (t *tally) add(n, bad int, why string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted += n
	t.failed += bad
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d failed: %s\n", bad, n, why)
	}
}

func (t *tally) counts() (attempted, failed int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attempted, t.failed
}

// lineMismatches counts the lines of want that got does not reproduce at
// the same position: changed lines, and lines missing from a short
// stream. Lines got has beyond want count too, so a stream is clean only
// when it is byte-identical to want.
func lineMismatches(got, want []byte) int {
	if bytes.Equal(got, want) {
		return 0
	}
	g, w := splitLines(got), splitLines(want)
	bad := 0
	for i := range w {
		if i >= len(g) || !bytes.Equal(g[i], w[i]) {
			bad++
		}
	}
	if len(g) > len(w) {
		bad += len(g) - len(w)
	}
	if bad == 0 {
		bad = 1 // same lines, different framing (e.g. a missing final newline)
	}
	return bad
}

// splitLines splits NDJSON into lines without their newlines.
func splitLines(b []byte) [][]byte {
	b = bytes.TrimSuffix(b, []byte("\n"))
	if len(b) == 0 {
		return nil
	}
	return bytes.Split(b, []byte("\n"))
}

// sha256Hex is the hex SHA-256 of b.
func sha256Hex(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// reference is what a workload's output is checked against: the pinned
// SHA-256 of the workers=1 output at the default seed, or, for any other
// seed, the bytes of a sequential run computed before the timed phase.
type reference struct {
	pinned string // hex SHA-256; empty when want is set
	want   []byte
}

// mismatches counts the failed items of one output of n items. Against a
// pinned hash a mismatch cannot be localized, so it fails all n.
func (r reference) mismatches(got []byte, n int) int {
	if r.pinned != "" {
		if sha256Hex(got) == r.pinned {
			return 0
		}
		return n
	}
	return lineMismatches(got, r.want)
}
