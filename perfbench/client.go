package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/blast"
	"repro/internal/server"
)

// httpClient talks only to loopback daemons: no proxy, and enough idle
// connections that every in-flight request reuses one.
var httpClient = &http.Client{Transport: &http.Transport{
	Proxy:               nil,
	MaxIdleConns:        64,
	MaxIdleConnsPerHost: 16,
	IdleConnTimeout:     time.Minute,
}}

// statusError is a non-200 reply; 429 is a shed and 503 a timeout or an
// unavailable shard, both counted as failures.
type statusError struct {
	code int
	body string
}

func (e *statusError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.body) }

func postJSON(ctx context.Context, url, requestID string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if requestID != "" {
		req.Header.Set("X-Request-ID", requestID)
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return &statusError{code: resp.StatusCode, body: string(bytes.TrimSpace(b))}
	}
	return json.Unmarshal(b, out)
}

func getJSON(ctx context.Context, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return &statusError{code: resp.StatusCode}
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// searchOne sends one query to a daemon's /search and returns its response.
// An incomplete or errored answer is a failure.
func searchOne(ctx context.Context, addr, requestID string, q blast.Sequence) (*server.SearchResponse, error) {
	var resp server.SearchResponse
	req := server.SearchRequest{Queries: []server.QueryInput{{Name: q.Name, Residues: q.Residues}}}
	if err := postJSON(ctx, "http://"+addr+"/search", requestID, req, &resp); err != nil {
		return nil, err
	}
	if resp.Incomplete || resp.Error != "" || len(resp.Results) != 1 || !resp.Results[0].Completed {
		return nil, fmt.Errorf("incomplete answer for %s: %q", q.Name, resp.Error)
	}
	return &resp, nil
}

// wireHits converts engine hits to the daemons' wire form, the shape the
// answers are compared in.
func wireHits(hits []blast.Hit) []server.Hit {
	out := make([]server.Hit, len(hits))
	for i, h := range hits {
		out[i] = server.HitFromBlast(h)
	}
	return out
}

// sameHits reports whether a daemon's answer equals the reference, hit for
// hit and field for field, and names the first difference.
func sameHits(got, want []server.Hit) error {
	for i := 0; i < max(len(got), len(want)); i++ {
		switch {
		case i >= len(got):
			return fmt.Errorf("%d hits, want %d; missing hit %d: %+v", len(got), len(want), i, want[i])
		case i >= len(want):
			return fmt.Errorf("%d hits, want %d; extra hit %d: %+v", len(got), len(want), i, got[i])
		case got[i] != want[i]:
			return fmt.Errorf("hit %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	return nil
}

// metricsText fetches a daemon's /metrics as name -> value.
func metricsText(ctx context.Context, addr string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range bytes.Split(b, []byte("\n")) {
		var name string
		var v float64
		if n, _ := fmt.Sscanf(string(line), "%s %g", &name, &v); n == 2 {
			out[name] = v
		}
	}
	return out, nil
}

// memStats is the part of /debug/vars the benchmark reads.
type memStats struct {
	Memstats struct {
		PauseTotalNs uint64 `json:"PauseTotalNs"`
		HeapAlloc    uint64 `json:"HeapAlloc"`
	} `json:"memstats"`
}

func debugVars(ctx context.Context, addr string) (memStats, error) {
	var m memStats
	err := getJSON(ctx, "http://"+addr+"/debug/vars", &m)
	return m, err
}
