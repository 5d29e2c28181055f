package server

// /search byte golden: the exact response bytes of a fixed request corpus
// must hash to the digests in testdata/search_digests.golden. The corpus
// covers MiniBank (eval corpus, 600 workload queries, a registered saved
// query and a few inputs that exercise JSON escaping) and 1,500 warehouse
// workload queries, with the dialect cycling through the daemon default
// and the four named dialects and, on MiniBank, snippets on and off.
// Regenerate (only when the response is meant to change) with
//
//	go test -run TestSearchBytesGolden -update ./internal/server/

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"soda"
	"soda/internal/eval"
	"soda/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

const searchDigestSeed = 20120827

var digestDialects = []string{"", "generic", "postgres", "mysql", "db2"}

// digestRequest is one /search request of the corpus.
type digestRequest struct {
	Query    string `json:"query"`
	Snippets bool   `json:"snippets,omitempty"`
	Dialect  string `json:"dialect,omitempty"`
}

// searchDigests sends every request through h in order and returns one
// digest per response: the body's sha256 for a 200, and the status with
// the error message otherwise (error bodies carry a per-boot request id).
func searchDigests(t *testing.T, h http.Handler, reqs []digestRequest) []string {
	t.Helper()
	out := make([]string, len(reqs))
	for i, rq := range reqs {
		body, err := json.Marshal(rq)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(body)))
		data := rec.Body.Bytes()
		if rec.Code != http.StatusOK {
			var e struct{ Error string }
			_ = json.Unmarshal(data, &e)
			data = []byte(fmt.Sprintf("status %d: %s", rec.Code, e.Error))
		}
		sum := sha256.Sum256(data)
		out[i] = hex.EncodeToString(sum[:8])
	}
	return out
}

// cycle expands queries into requests, cycling the dialect per query and,
// when snippets is set, alternating the snippet flag.
func cycle(queries []string, snippets bool) []digestRequest {
	reqs := make([]digestRequest, 0, len(queries))
	for i, q := range queries {
		reqs = append(reqs, digestRequest{
			Query:    q,
			Dialect:  digestDialects[i%len(digestDialects)],
			Snippets: snippets && (i/len(digestDialects))%2 == 0,
		})
	}
	return reqs
}

func miniBankDigests(t *testing.T) []string {
	w := soda.MiniBank()
	sys := soda.NewSystem(w, soda.Options{})
	h := New(sys)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPut, "/admin/queries/big%20earners", strings.NewReader(bigEarnersBody)))
	if rec.Code != http.StatusOK {
		t.Fatalf("registering the saved query: status %d: %s", rec.Code, rec.Body)
	}
	var queries []string
	for _, q := range eval.Corpus() {
		queries = append(queries, q.Input)
	}
	queries = append(queries, workload.New(w.Meta(), w.Index(), searchDigestSeed).Queries(600)...)
	queries = append(queries,
		"big earners salary >= 50000",
		"big earners",
		`customers <b>&"Zürich"</b> \ wealthy`,
		"wealthy\tcustomers Zürich ",
		"Sara Guttinger",
	)
	var reqs []digestRequest
	for _, snippets := range []bool{true, false} {
		reqs = append(reqs, cycle(queries, snippets)...)
	}
	return searchDigests(t, h, reqs)
}

func warehouseDigests(t *testing.T) []string {
	w := soda.Warehouse(soda.WarehouseConfig{})
	sys := soda.NewSystem(w, soda.Options{})
	queries := workload.New(w.Meta(), w.Index(), searchDigestSeed).Queries(1500)
	return searchDigests(t, New(sys), cycle(queries, false))
}

func TestSearchBytesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the warehouse world")
	}
	var got []string
	for _, d := range miniBankDigests(t) {
		got = append(got, "minibank "+d)
	}
	for _, d := range warehouseDigests(t) {
		got = append(got, "warehouse "+d)
	}

	path := filepath.Join("testdata", "search_digests.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("corpus has %d responses, golden %d", len(got), len(want))
	}
	bad := 0
	for i := range want {
		if got[i] != want[i] {
			if bad < 10 {
				t.Errorf("response %d: digest %s, golden %s", i, got[i], want[i])
			}
			bad++
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d /search responses changed", bad, len(want))
	}
}
