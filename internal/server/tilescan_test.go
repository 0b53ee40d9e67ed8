package server

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/parser"
	"repro/internal/pathology"
	"repro/internal/sched"
	"repro/internal/store"
)

// decoderLoop is handlePutDataset's decode loop as it stood before
// tileScanner, kept as the oracle the scanner is held to: a json.Decoder with
// unknown fields disallowed, one Decode per element. each sees every tile
// that decoded with both raws present and returns a status to stop with, or
// 0; the loop's own result is 400 for a body it rejects and 0 otherwise.
func decoderLoop(body []byte, each func(TilePayload) int) int {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if tok, err := dec.Token(); err != nil || tok != json.Delim('[') {
		return http.StatusBadRequest
	}
	for dec.More() {
		var tp TilePayload
		if err := dec.Decode(&tp); err != nil {
			return http.StatusBadRequest
		}
		if len(tp.RawA) == 0 || len(tp.RawB) == 0 {
			return http.StatusBadRequest
		}
		if code := each(tp); code != 0 {
			return code
		}
	}
	if tok, err := dec.Token(); err != nil || tok != json.Delim(']') {
		return http.StatusBadRequest
	}
	return 0
}

// scannerLoop is the same loop over a tileScanner with the given read buffer.
func scannerLoop(body []byte, bufBytes int, each func(TilePayload) int) int {
	sc := newTileScanner(bytes.NewReader(body), bufBytes)
	if err := sc.open(); err != nil {
		return http.StatusBadRequest
	}
	var tp TilePayload
	for {
		more, err := sc.more()
		if err != nil {
			return http.StatusBadRequest
		}
		if !more {
			return 0
		}
		if err := sc.tile(&tp); err != nil {
			return http.StatusBadRequest
		}
		if len(tp.RawA) == 0 || len(tp.RawB) == 0 {
			return http.StatusBadRequest
		}
		if code := each(tp); code != 0 {
			return code
		}
	}
}

// scanned is what an ingest keeps of a tile.
type scanned struct {
	image      string
	tile       int
	rawA, rawB string
}

func collect(into *[]scanned) func(TilePayload) int {
	return func(tp TilePayload) int {
		*into = append(*into, scanned{tp.Image, tp.Tile, string(tp.RawA), string(tp.RawB)})
		return 0
	}
}

const (
	squareText = "0 POLYGON ((0 0,0 4,4 4,4 0))\n"
	otherText  = "0 POLYGON ((1 1,1 9,9 9,9 1))\n1 POLYGON ((20 20,20 24,24 24,24 20))\n"
)

func b64(s string) string { return base64.StdEncoding.EncodeToString([]byte(s)) }

// putBodySeeds are the bodies the scanner and the decoder must agree on: the
// corners of JSON that a hand-written scanner is most likely to get wrong.
func putBodySeeds() [][]byte {
	sq, ot := b64(squareText), b64(otherText)
	// A \u0041 escape and an escaped slash inside base64; both decode.
	escaped := strings.Replace(sq, "A", `\u0041`, 1)
	slashed := strings.Replace(b64(squareText+"???"), "/", `\/`, -1) // "???" encodes to "Pz8/"
	base := fmt.Sprintf(`[{"image":"img","tile":3,"raw_a":"%s","raw_b":"%s"},{"tile":4,"raw_a":"%s","raw_b":"%s"}]`, sq, ot, ot, sq)
	seeds := []string{
		base,
		`[]`, ``, `[`, `]`, `{}`, `null`, `[null]`, `[1]`, `["x"]`, `[[]]`, `[{}]`, `[{},]`, `[,{}]`,
		fmt.Sprintf(`[{"RAW_A":"%s","Raw_B":"%s","TILE":1}]`, sq, sq),                                      // key case folds
		fmt.Sprintf(`[{"raw_a":"%s","raw_a":"%s","raw_b":"%s"}]`, sq, ot, sq),                              // duplicate key: last wins
		fmt.Sprintf(`[{"raw_a":"%s","RAW_A":"%s","raw_b":"%s"}]`, sq, ot, sq),                              // base64 path, then encoding/json
		fmt.Sprintf(`[{"RAW_A":"%s","raw_a":"%s","raw_b":"%s"}]`, sq, ot, sq),                              // and the other way round
		fmt.Sprintf(`[{"raw_a":"%s","raw_a":null,"raw_b":"%s"}]`, sq, sq),                                  // null clears a slice
		fmt.Sprintf(`[{"tile":7,"tile":null,"image":"x","image":null,"raw_a":"%s","raw_b":"%s"}]`, sq, sq), // and leaves scalars
		fmt.Sprintf(`[{"raw_a":"%s","raw_b":"%s"}]`, escaped, slashed),
		fmt.Sprintf(`[{"raw_a":"%s\n","raw_b":"%s\r\n"}]`, sq, sq),       // escaped line breaks: base64 skips them
		fmt.Sprintf("[{\"raw_a\":\"%s\n\",\"raw_b\":\"%s\"}]", sq, sq),   // a raw one is not JSON
		fmt.Sprintf(`[{"raw_a":"%s\"","raw_b":"%s"}]`, sq, sq),           // escaped quote inside the string
		fmt.Sprintf(`[{"raw_a":"%s\\","raw_b":"%s"}]`, sq, sq),           // escaped backslash before the closing quote
		fmt.Sprintf(`[{"raw_a":[48,32],"raw_b":"%s"}]`, sq),              // a byte array is a []byte too
		fmt.Sprintf(`[{"raw_a":{"x":"}"},"raw_b":"%s"}]`, sq),            // nested value, bracket inside a string
		fmt.Sprintf(`[{"raw_a":"%s=","raw_b":"%s"}]`, sq, sq),            // bad padding
		fmt.Sprintf(`[{"raw_a":"%s","raw_b":"%s"}]`, sq[:len(sq)-1], sq), // cut base64
		fmt.Sprintf(`[{"raw_a":"","raw_b":"%s"}]`, sq),                   // empty
		fmt.Sprintf(`[{"raw_a":"é%s","raw_b":"%s"}]`, sq, sq),            // not base64
		fmt.Sprintf(" \t\r\n[ \n{ \"tile\" \t: 1 ,\r\"raw_a\" : \"%s\" , \"raw_b\"\n:\n\"%s\" } \n, { \"raw_a\":\"%s\",\"raw_b\":\"%s\" }\t] \n", sq, sq, ot, ot),
		base + `trailing bytes`, base + `]`, base + `,`,
		fmt.Sprintf(`[{"raw_a":"%s","raw_b":"%s","colour":"red"}]`, sq, sq), // unknown field
		fmt.Sprintf(`[{"raw_a":"%s","raw_b":"%s","polygonſ_a":1}]`, sq, sq), // a name encoding/json folds onto polygons_a
		fmt.Sprintf(`[{"tile":1e2,"raw_a":"%s","raw_b":"%s"}]`, sq, sq),     // not an int
		fmt.Sprintf(`[{"tile":1.0,"raw_a":"%s","raw_b":"%s"}]`, sq, sq),
		fmt.Sprintf(`[{"tile":-0,"raw_a":"%s","raw_b":"%s"}]`, sq, sq),
		fmt.Sprintf(`[{"tile":01,"raw_a":"%s","raw_b":"%s"}]`, sq, sq),
		fmt.Sprintf(`[{"tile":99999999999999999999,"raw_a":"%s","raw_b":"%s"}]`, sq, sq),
		fmt.Sprintf(`[{"tile":"1","raw_a":"%s","raw_b":"%s"}]`, sq, sq),
		fmt.Sprintf(`[{"tile":,"raw_a":"%s","raw_b":"%s"}]`, sq, sq),
		fmt.Sprintf(`[{"tile":1"raw_a":"%s","raw_b":"%s"}]`, sq, sq),
		fmt.Sprintf(`[{"tile":1 "raw_a":"%s","raw_b":"%s"}]`, sq, sq),
		fmt.Sprintf(`[{"tile":true,"raw_a":"%s","raw_b":"%s"}]`, sq, sq),
		fmt.Sprintf(`[{"image":7,"raw_a":"%s","raw_b":"%s"}]`, sq, sq),
		fmt.Sprintf(`[{"image":"a\u00e9\"b\\","raw_a":"%s","raw_b":"%s"}]`, sq, sq),
		fmt.Sprintf(`[{"index":2,"image":"i","tile":5,"polygons_a":1,"polygons_b":2,"raw_a":"%s","raw_b":"%s"}]`, sq, ot), // GET /tiles/{n}, verbatim
		fmt.Sprintf(`[{"raw_a":"%s","raw_b":"%s"}{"raw_a":"%s","raw_b":"%s"}]`, sq, sq, ot, ot),                           // missing comma
		fmt.Sprintf(`[{"raw_a":"%s","raw_b":"%s"},]`, sq, sq),
		fmt.Sprintf(`[{"raw_a":"%s","raw_b":"%s",}]`, sq, sq),
		fmt.Sprintf(`[{"raw_a":"%s" "raw_b":"%s"}]`, sq, sq),
		fmt.Sprintf(`[{"raw_a" "%s","raw_b":"%s"}]`, sq, sq),
		fmt.Sprintf(`[{raw_a:"%s","raw_b":"%s"}]`, sq, sq),
		fmt.Sprintf(`[{"raw_a":"%s","raw_b":"%s"}}`, sq, sq),
		fmt.Sprintf(`[{"raw_a":"bm90IGEgcG9seWdvbg==","raw_b":"%s"},{"raw_a":bad}]`, sq),                           // 422 on tile 0 comes before tile 1's 400
		fmt.Sprintf(`[{"tile":1,"raw_a":"%s","raw_b":"%s"},{"tile":1,"raw_a":"%s","raw_b":"%s"}]`, sq, sq, ot, ot), // duplicate tile
	}
	out := make([][]byte, 0, len(seeds)+len(base))
	for _, s := range seeds {
		out = append(out, []byte(s))
	}
	// base cut at every byte, which is every token boundary and then some.
	for i := 1; i < len(base); i++ {
		out = append(out, []byte(base[:i]))
	}
	return out
}

// checkScannerAgrees holds the scanner, at several read-buffer sizes (16 is
// bufio's smallest, so every string of a seed crosses a chunk boundary), to
// the decoder loop: same result, same tiles in the same order.
func checkScannerAgrees(t *testing.T, body []byte) {
	t.Helper()
	var want []scanned
	wantCode := decoderLoop(body, collect(&want))
	for _, bufBytes := range []int{16, 61, 4096} {
		var got []scanned
		code := scannerLoop(body, bufBytes, collect(&got))
		if code != wantCode {
			t.Fatalf("buffer %d: scanner result %d, decoder %d\nbody: %q", bufBytes, code, wantCode, body)
		}
		if len(got) != len(want) {
			t.Fatalf("buffer %d: scanner yielded %d tiles, decoder %d\nbody: %q", bufBytes, len(got), len(want), body)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("buffer %d: tile %d = %q, decoder %q\nbody: %q", bufBytes, i, got[i], want[i], body)
			}
		}
	}
}

func TestTileScannerMatchesDecoderOnSeeds(t *testing.T) {
	for _, body := range putBodySeeds() {
		checkScannerAgrees(t, body)
	}
}

// FuzzPutDatasetBody: for every body, the scanner and the json.Decoder loop
// it replaced agree on whether the body is accepted and on the (image, tile,
// raw_a, raw_b) sequence it yields.
func FuzzPutDatasetBody(f *testing.F) {
	for _, body := range putBodySeeds() {
		f.Add(body)
	}
	f.Fuzz(checkScannerAgrees)
}

// TestPutDatasetStatusMatchesDecoderLoop drives the seeds through the real
// handler: the status it answers is the one the old loop, followed by the
// same parse, duplicate and empty checks, arrives at.
func TestPutDatasetStatusMatchesDecoderLoop(t *testing.T) {
	st := testStore(t)
	_, _, ts := newTestServer(t, sched.Config{Devices: 0}, Options{Store: st})
	for _, body := range putBodySeeds() {
		type key struct {
			image string
			tile  int
		}
		seen := map[key]bool{}
		want := decoderLoop(body, func(tp TilePayload) int {
			for _, raw := range [][]byte{tp.RawA, tp.RawB} {
				if _, err := parser.Parse(raw); err != nil {
					return http.StatusUnprocessableEntity
				}
			}
			if seen[key{tp.Image, tp.Tile}] {
				return http.StatusBadRequest
			}
			seen[key{tp.Image, tp.Tile}] = true
			return 0
		})
		if want == 0 {
			want = http.StatusOK
			if len(seen) == 0 {
				want = http.StatusBadRequest // store.ErrEmpty
			}
		}
		resp, out := putDataset(t, ts.URL+"/datasets", body)
		if resp.StatusCode != want {
			t.Errorf("status = %d (%s), want %d\nbody: %q", resp.StatusCode, out, want, body)
		}
	}
}

// TestTileScannerLongTokens: strings and nested values far longer than the
// read buffer, on both paths.
func TestTileScannerLongTokens(t *testing.T) {
	long := strings.Repeat(otherText, 400)
	for _, body := range []string{
		fmt.Sprintf(`[{"image":"%s","raw_a":"%s","raw_b":"%s"}]`, strings.Repeat("n", 9000), b64(long), b64(squareText)),
		fmt.Sprintf(`[{"raw_a":"%s\n","raw_b":"%s"}]`, b64(long), b64(squareText)),
		fmt.Sprintf(`[{"raw_a":[%s48],"raw_b":"%s"}]`, strings.Repeat("48, ", 5000), b64(squareText)),
	} {
		checkScannerAgrees(t, []byte(body))
	}
}

func putBody(d *pathology.Dataset) (body []byte, textBytes int64) {
	out := []byte{'['}
	for i, tp := range d.Pairs {
		if i > 0 {
			out = append(out, ',')
		}
		ra, rb := parser.Encode(tp.A), parser.Encode(tp.B)
		textBytes += int64(len(ra) + len(rb))
		out = append(out, `{"image":`...)
		out = strconv.AppendQuote(out, tp.Image)
		out = append(out, `,"tile":`...)
		out = strconv.AppendInt(out, int64(tp.Index), 10)
		out = append(out, `,"raw_a":"`...)
		out = base64.StdEncoding.AppendEncode(out, ra)
		out = append(out, `","raw_b":"`...)
		out = base64.StdEncoding.AppendEncode(out, rb)
		out = append(out, `"}`...)
	}
	return append(out, ']'), textBytes
}

func representative(tiles int, seed int64) *pathology.Dataset {
	spec := pathology.Representative()
	spec.Tiles = tiles
	spec.Seed += seed
	return pathology.Generate(spec)
}

// TestPutDatasetGoldenID: the pinned dataset of store's TestGoldenSegment,
// sent as text through the scanner and the parser, lands under the same
// content ID — and a tile read back and re-PUT whole does too.
func TestPutDatasetGoldenID(t *testing.T) {
	const wantID = "24667565db0d6ba7d93181861eed26bd743423087b5e352359e4956b28c32479"
	st := testStore(t)
	_, _, ts := newTestServer(t, sched.Config{Devices: 0}, Options{Store: st})
	body, _ := putBody(representative(4, 0))
	resp, out := putDataset(t, ts.URL+"/datasets?name=golden", body)
	var got DatasetResponse
	if err := json.Unmarshal(out, &got); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT = %d (%s): %v", resp.StatusCode, out, err)
	}
	if got.ID != wantID {
		t.Fatalf("dataset ID = %s, want %s", got.ID, wantID)
	}
	tiles := make([]json.RawMessage, got.Tiles)
	for i := range tiles {
		if resp := getJSON(t, fmt.Sprintf("%s/datasets/%s/tiles/%d", ts.URL, got.ID, i), &tiles[i]); resp.StatusCode != http.StatusOK {
			t.Fatalf("GET tile %d = %d", i, resp.StatusCode)
		}
	}
	if err := st.Delete(got.ID); err != nil {
		t.Fatal(err)
	}
	again, err := json.Marshal(tiles)
	if err != nil {
		t.Fatal(err)
	}
	resp, out = putDataset(t, ts.URL+"/datasets", again)
	if err := json.Unmarshal(out, &got); err != nil || resp.StatusCode != http.StatusOK || got.ID != wantID {
		t.Fatalf("re-PUT of the tiles read back = %d, ID %s (%v), want %s", resp.StatusCode, got.ID, err, wantID)
	}
}

// TestConcurrentPuts: uploads racing each other — the same content twice and
// different content — each get their own answer, and nothing is left behind.
func TestConcurrentPuts(t *testing.T) {
	st := testStore(t)
	_, _, ts := newTestServer(t, sched.Config{Devices: 0}, Options{Store: st})
	same, _ := putBody(representative(3, 0))
	other, _ := putBody(representative(3, 1))
	bodies := [][]byte{same, same, other, same}
	ids := make([]string, len(bodies))
	var wg sync.WaitGroup
	for i, body := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, err := http.NewRequest(http.MethodPut, ts.URL+"/datasets", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var got DatasetResponse
			if err := json.NewDecoder(resp.Body).Decode(&got); err != nil || resp.StatusCode != http.StatusOK {
				t.Errorf("PUT %d = %d: %v", i, resp.StatusCode, err)
			}
			ids[i] = got.ID
		}()
	}
	wg.Wait()
	if ids[0] != ids[1] || ids[0] != ids[3] || ids[0] == ids[2] || ids[2] == "" {
		t.Fatalf("IDs = %v, want three alike and one apart", ids)
	}
	if st.Len() != 2 {
		t.Fatalf("store holds %d datasets, want 2", st.Len())
	}
	if tmps, _ := filepath.Glob(filepath.Join(st.Dir(), "tmp-*")); len(tmps) != 0 {
		t.Fatalf("uploads left %v behind", tmps)
	}
}

// BenchmarkPutDataset is one representative 32-tile dataset (the benchmark
// corpus' shape, ≈1.07 MB of polygon text) through Handler(): scan, parse,
// validate, encode, hash, write, commit.
func BenchmarkPutDataset(b *testing.B) {
	st, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	sc := sched.New(sched.Config{Devices: 0})
	defer sc.Close()
	srv := New(sc, Options{Store: st})
	defer srv.Close()
	h := srv.Handler()
	body, text := putBody(representative(32, 0))
	b.SetBytes(text)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPut, "/datasets?name=bench", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("PUT = %d: %s", rec.Code, rec.Body.Bytes())
		}
		b.StopTimer()
		for _, man := range st.List() { // so that the next PUT writes again
			if err := st.Delete(man.ID); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
	}
}
