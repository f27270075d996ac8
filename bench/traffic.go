package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"time"

	"github.com/friendseeker/friendseeker/internal/checkin"
	"github.com/friendseeker/friendseeker/internal/ingest"
)

// datasetName is what the served dataset is registered as.
const datasetName = "w"

// requestTimeout bounds one request; the server's own budget is 10 s.
const requestTimeout = 15 * time.Second

// readStream deals infer request bodies over a seeded shuffle of every
// user pair, continuing where the previous phase stopped.
type readStream struct {
	pairs  []checkin.Pair
	perReq int
	order  []int
	next   int
}

func newReadStream(pairs []checkin.Pair, perReq int, seed int64) *readStream {
	return &readStream{pairs: pairs, perReq: perReq, order: rand.New(rand.NewSource(seed)).Perm(len(pairs))}
}

// bodies returns the next n request bodies.
func (r *readStream) bodies(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		b := append(make([]byte, 0, 32+24*r.perReq), `{"dataset":"`+datasetName+`","pairs":[`...)
		for k := 0; k < r.perReq; k++ {
			p := r.pairs[r.order[r.next%len(r.order)]]
			r.next++
			if k > 0 {
				b = append(b, ',')
			}
			b = append(b, '[')
			b = strconv.AppendInt(b, int64(p.A), 10)
			b = append(b, ',')
			b = strconv.AppendInt(b, int64(p.B), 10)
			b = append(b, ']')
		}
		out[i] = append(b, "]}"...)
	}
	return out
}

// writeLanes is how many sequential check-in writers run; each owns its
// own connection and a disjoint half of the users, so every user's
// timestamps reach the server in order.
const writeLanes = 2

// recordsPerBatch is the size of one POST /v1/checkins batch.
const recordsPerBatch = 16

// writeStream deals check-in batch bodies. Batch i belongs to lane
// i%writeLanes, matching runOpenLoop's lane assignment; each lane has its
// own users and time cursor, which advances one second per record from
// just past the trace's last check-in.
type writeStream struct {
	users   [writeLanes][]checkin.UserID
	pois    []checkin.POI
	r       *rand.Rand
	next    [writeLanes]int
	cursor  [writeLanes]time.Time
	batches int // batches dealt so far
}

func newWriteStream(ds *checkin.Dataset, seed int64) *writeStream {
	w := &writeStream{pois: ds.POIs(), r: rand.New(rand.NewSource(seed + 1))}
	users := ds.Users()
	for i, j := range w.r.Perm(len(users)) {
		w.users[i%writeLanes] = append(w.users[i%writeLanes], users[j])
	}
	_, last := ds.Span()
	for l := range w.cursor {
		w.cursor[l] = last.Add(time.Second)
	}
	return w
}

// bodies returns the next n batch bodies. The batch index continues
// across phases, so a phase must start on a lane boundary: n is rounded
// up to a multiple of writeLanes.
func (w *writeStream) bodies(n int) [][]byte {
	n = (n + writeLanes - 1) / writeLanes * writeLanes
	out := make([][]byte, n)
	for i := range out {
		b, err := json.Marshal(map[string][]ingest.Record{"records": w.batch()})
		if err != nil {
			panic(err) // records are plain values; Marshal cannot fail
		}
		out[i] = b
	}
	return out
}

// batch returns the next batch's records.
func (w *writeStream) batch() []ingest.Record {
	l := w.batches % writeLanes
	w.batches++
	recs := make([]ingest.Record, recordsPerBatch)
	for k := range recs {
		u := w.users[l][w.next[l]%len(w.users[l])]
		w.next[l]++
		p := w.pois[w.r.Intn(len(w.pois))]
		w.cursor[l] = w.cursor[l].Add(time.Second)
		recs[k] = ingest.Record{User: int64(u), POI: int64(p.ID), Lat: p.Center.Lat, Lng: p.Center.Lng, Time: w.cursor[l]}
	}
	return recs
}

// poster sends prepared bodies to one endpoint.
type poster struct {
	client *http.Client
	url    string
	bodies [][]byte
}

// do sends body i and reports whether the server answered 200.
func (p *poster) do(ctx context.Context, i int) bool {
	status, _, err := post(ctx, p.client, p.url, p.bodies[i])
	return err == nil && status == http.StatusOK
}

func post(ctx context.Context, client *http.Client, url string, body []byte) (int, []byte, error) {
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// inferAnswer is the part of a /v1/infer response the checks read.
type inferAnswer struct {
	Decisions []bool `json:"decisions"`
	Degraded  bool   `json:"degraded"`
}

// askServer asks the server to decide pairs, 64 at a time.
func askServer(ctx context.Context, client *http.Client, base string, pairs []checkin.Pair) ([]bool, error) {
	var out []bool
	for start := 0; start < len(pairs); start += 64 {
		chunk := pairs[start:min(start+64, len(pairs))]
		rs := &readStream{pairs: chunk, perReq: len(chunk), order: identity(len(chunk))}
		status, body, err := post(ctx, client, base+"/v1/infer", rs.bodies(1)[0])
		if err != nil {
			return nil, err
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("POST /v1/infer: status %d: %s", status, body)
		}
		var ans inferAnswer
		if err := json.Unmarshal(body, &ans); err != nil {
			return nil, err
		}
		if ans.Degraded {
			return nil, fmt.Errorf("server flagged pairs %d-%d degraded", start, start+len(chunk)-1)
		}
		if len(ans.Decisions) != len(chunk) {
			return nil, fmt.Errorf("server answered %d decisions for %d pairs", len(ans.Decisions), len(chunk))
		}
		out = append(out, ans.Decisions...)
	}
	return out, nil
}

func identity(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}
