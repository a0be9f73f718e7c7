// Gateway demonstrates range serving end to end: an HTTP front end over a
// live fleet where files are Lepton-compressed on upload and HTTP Range
// requests are served by partial decode — a 1 KB read decodes roughly one
// thread segment of one chunk, not the whole file. Three blockservers come
// up on loopback, a FleetStore places chunks across them, and the gateway
// maps PUT to compress-on-ingest and GET with a Range: header onto
// FleetStore.GetFileRange. The demo uploads a JPEG, issues a spread of
// ranged reads, verifies every slice against the original, and prints the
// fast-path/fallback split from the range counters.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"

	"lepton"
	"lepton/internal/imagegen"
	"lepton/internal/server"
	"lepton/internal/store"
)

// maxUpload bounds one PUT body.
const maxUpload = 256 << 20

// gateway is the HTTP front end: a name→FileRef directory over a
// FleetStore. Uploads compress on ingest; ranged downloads decode only
// what the range touches.
type gateway struct {
	st *lepton.FleetStore

	mu    sync.RWMutex
	files map[string]lepton.FileRef
}

func newGateway(st *lepton.FleetStore) *gateway {
	return &gateway{st: st, files: make(map[string]lepton.FileRef)}
}

func (g *gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/files/")
	if name == "" || name == r.URL.Path {
		http.NotFound(w, r)
		return
	}
	switch r.Method {
	case http.MethodPut:
		g.put(w, r, name)
	case http.MethodGet, http.MethodHead:
		g.get(w, r, name)
	default:
		w.Header().Set("Allow", "GET, HEAD, PUT")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// put compresses the body on ingest (chunked, round-trip verified; inputs
// Lepton cannot hold fall back to raw chunks) and places every chunk on
// its replicas.
func (g *gateway) put(w http.ResponseWriter, r *http.Request, name string) {
	data, err := io.ReadAll(io.LimitReader(r.Body, maxUpload+1))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if len(data) > maxUpload {
		http.Error(w, "body too large", http.StatusRequestEntityTooLarge)
		return
	}
	ref, err := g.st.PutFile(r.Context(), data)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	g.mu.Lock()
	g.files[name] = ref
	g.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	_ = json.NewEncoder(w).Encode(map[string]any{"name": name, "size": ref.Size, "chunks": len(ref.Chunks)})
}

// get serves the file, honoring a single-range Range: header with a 206
// partial response backed by GetFileRange. Multipart or malformed range
// headers fall back to the full 200 response (allowed by RFC 9110); a
// range starting at or past the end is 416.
func (g *gateway) get(w http.ResponseWriter, r *http.Request, name string) {
	g.mu.RLock()
	ref, ok := g.files[name]
	g.mu.RUnlock()
	if !ok {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Accept-Ranges", "bytes")
	if off, n, ok := parseRange(r.Header.Get("Range"), ref.Size); ok {
		if off >= ref.Size {
			w.Header().Set("Content-Range", fmt.Sprintf("bytes */%d", ref.Size))
			http.Error(w, "range not satisfiable", http.StatusRequestedRangeNotSatisfiable)
			return
		}
		body, err := g.st.GetFileRange(r.Context(), ref, off, n)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		w.Header().Set("Content-Range", fmt.Sprintf("bytes %d-%d/%d", off, off+int64(len(body))-1, ref.Size))
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.WriteHeader(http.StatusPartialContent)
		if r.Method != http.MethodHead {
			_, _ = w.Write(body)
		}
		return
	}
	body, err := g.st.GetFile(r.Context(), ref)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	if r.Method != http.MethodHead {
		_, _ = w.Write(body)
	}
}

// parseRange parses a single-range "bytes=" header into (off, n). It
// reports ok=false for an absent, malformed, or multipart header — the
// caller serves the full file then — and handles the suffix form
// ("bytes=-k": the last k bytes).
func parseRange(h string, size int64) (off, n int64, ok bool) {
	spec, found := strings.CutPrefix(h, "bytes=")
	if !found || strings.Contains(spec, ",") {
		return 0, 0, false
	}
	first, last, found := strings.Cut(strings.TrimSpace(spec), "-")
	if !found {
		return 0, 0, false
	}
	if first == "" {
		// Suffix form: the final k bytes.
		k, err := strconv.ParseInt(last, 10, 64)
		if err != nil || k <= 0 {
			return 0, 0, false
		}
		if k > size {
			k = size
		}
		return size - k, k, true
	}
	off, err := strconv.ParseInt(first, 10, 64)
	if err != nil || off < 0 {
		return 0, 0, false
	}
	if last == "" {
		return off, size - off, true
	}
	end, err := strconv.ParseInt(last, 10, 64)
	if err != nil || end < off {
		return 0, 0, false
	}
	return off, end - off + 1, true
}

// startFleet brings up n in-process blockservers on loopback and returns a
// router over them.
func startFleet(n int) (*lepton.Fleet, func(), error) {
	var addrs []string
	var closers []func()
	for i := 0; i < n; i++ {
		b := &server.Blockserver{Store: store.New(), Shards: 4}
		bound, err := server.ListenAndServe("tcp:127.0.0.1:0", b)
		if err != nil {
			return nil, nil, err
		}
		closers = append(closers, func() { _ = b.Close() })
		addrs = append(addrs, bound)
	}
	fleet, err := lepton.DialFleet(addrs, nil)
	if err != nil {
		return nil, nil, err
	}
	stop := func() {
		_ = fleet.Close()
		for _, c := range closers {
			c()
		}
	}
	return fleet, stop, nil
}

func main() {
	fleet, stop, err := startFleet(3)
	if err != nil {
		log.Fatal(err)
	}
	defer stop()
	fs, err := lepton.NewFleetStore(fleet, &lepton.FleetStoreOptions{ChunkSize: 256 << 10})
	if err != nil {
		log.Fatal(err)
	}
	gw := httptest.NewServer(newGateway(fs))
	defer gw.Close()
	fmt.Printf("gateway on %s over %d blockservers\n\n", gw.URL, len(fleet.Nodes()))

	// Upload: compressed on ingest, chunks placed across the fleet.
	jpg, err := imagegen.Generate(7, 1600, 1200)
	if err != nil {
		log.Fatal(err)
	}
	req, _ := http.NewRequestWithContext(context.Background(), http.MethodPut, gw.URL+"/files/photo.jpg", strings.NewReader(string(jpg)))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	meta, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fmt.Printf("PUT %d-byte JPEG -> %d %s", len(jpg), resp.StatusCode, meta)

	// Ranged reads: each decodes only the chunk rows the range touches.
	for _, rg := range []string{"bytes=0-1023", "bytes=120000-120999", "bytes=-4096"} {
		req, _ := http.NewRequestWithContext(context.Background(), http.MethodGet, gw.URL+"/files/photo.jpg", nil)
		req.Header.Set("Range", rg)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			log.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		off, n, _ := parseRange(rg, int64(len(jpg)))
		want := jpg[min(off, int64(len(jpg))):min(off+n, int64(len(jpg)))]
		match := "MATCH"
		if string(body) != string(want) {
			match = "MISMATCH"
		}
		fmt.Printf("GET Range: %-22s -> %d, %5d bytes, %s vs original slice\n", rg, resp.StatusCode, len(body), match)
	}

	stats := lepton.RangeStats()
	fmt.Printf("\nrange decode counters: fast=%d fallback_no_index=%d fallback_unsupported=%d segments_decoded=%d\n",
		stats["range_fast"], stats["range_fallback_no_index"], stats["range_fallback_unsupported"], stats["range_segments_decoded"])
}

func min(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
