package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"aware/internal/api"
	"aware/internal/census"
	"aware/internal/client"
	"aware/internal/cluster"
	"aware/internal/obs/obstest"
	"aware/internal/server"
)

func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError + 1}))
}

// startNode brings up one in-process awared replica with its own journal
// directory and its own copy of the census (tables are mutated on
// registration and must never be shared between registries).
func startNode(t *testing.T, name, journalDir string) (*server.Server, *httptest.Server) {
	t.Helper()
	srv, err := server.New(server.Config{
		Logger:     discardLogger(),
		JournalDir: journalDir,
		NodeName:   name,
	})
	if err != nil {
		t.Fatal(err)
	}
	table, err := census.Generate(census.Config{Rows: 2000, Seed: 1, SignalStrength: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Registry().Register("census", table); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts
}

// startCluster wires n nodes behind a router (health prober disabled: node
// death is detected by proxy errors, keeping the tests deterministic).
func startCluster(t *testing.T, n int) (nodes []cluster.Node, servers []*httptest.Server, rt *cluster.Router, router *httptest.Server) {
	t.Helper()
	names := []string{"n1", "n2", "n3", "n4"}[:n]
	for _, name := range names {
		dir := filepath.Join(t.TempDir(), name)
		_, ts := startNode(t, name, dir)
		nodes = append(nodes, cluster.Node{Name: name, URL: ts.URL, JournalDir: dir})
		servers = append(servers, ts)
	}
	rt, err := cluster.NewRouter(cluster.Config{
		Nodes:          nodes,
		Logger:         discardLogger(),
		HealthInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	router = httptest.NewServer(rt.Handler())
	t.Cleanup(router.Close)
	return nodes, servers, rt, router
}

func TestRouterPlacesSessionsByRingAffinity(t *testing.T) {
	nodes, _, _, router := startCluster(t, 3)
	names := make([]string, 0, len(nodes))
	for _, n := range nodes {
		names = append(names, n.Name)
	}
	ring, err := cluster.NewRing(names, 0)
	if err != nil {
		t.Fatal(err)
	}
	var calls []client.Call
	c := client.New(router.URL, client.WithObserver(func(call client.Call) { calls = append(calls, call) }))
	ctx := context.Background()
	for i := 0; i < 12; i++ {
		info, err := c.CreateSession(ctx, api.SessionSpec{Dataset: "census"})
		if err != nil {
			t.Fatal(err)
		}
		want, _ := ring.Owner(cluster.SessionKey(info.ID), nil)
		// Every request for one session — create included — is answered by
		// the session's ring owner, observable via X-Aware-Node.
		for rep := 0; rep < 3; rep++ {
			calls = calls[:0]
			if _, err := c.Gauge(ctx, info.ID); err != nil {
				t.Fatalf("gauge session %d: %v", info.ID, err)
			}
			if got := calls[len(calls)-1].Node; got != want {
				t.Fatalf("session %d served by %q, ring owner is %q", info.ID, got, want)
			}
		}
	}
}

func TestRouterScatterGathersSessionsAndHealth(t *testing.T) {
	_, _, _, router := startCluster(t, 3)
	c := client.New(router.URL)
	ctx := context.Background()
	created := map[int64]bool{}
	for i := 0; i < 9; i++ {
		info, err := c.CreateSession(ctx, api.SessionSpec{Dataset: "census"})
		if err != nil {
			t.Fatal(err)
		}
		created[info.ID] = true
	}
	list, err := c.Sessions(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Sessions) != len(created) {
		t.Fatalf("merged listing has %d sessions, created %d", len(list.Sessions), len(created))
	}
	for i, s := range list.Sessions {
		if !created[s.ID] {
			t.Fatalf("listing contains unknown session %d", s.ID)
		}
		if i > 0 && list.Sessions[i-1].ID >= s.ID {
			t.Fatalf("merged listing not sorted by ID: %d before %d", list.Sessions[i-1].ID, s.ID)
		}
	}
	resp, err := http.Get(router.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health cluster.ClusterHealth
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" {
		t.Fatalf("cluster status %q, want ok", health.Status)
	}
	if health.Sessions != len(created) {
		t.Fatalf("aggregate health reports %d sessions, want %d", health.Sessions, len(created))
	}
	if len(health.Nodes) != 3 {
		t.Fatalf("aggregate health reports %d nodes, want 3", len(health.Nodes))
	}
	total := 0
	for _, nh := range health.Nodes {
		if !nh.Alive {
			t.Fatalf("node %s reported dead in a healthy cluster", nh.Name)
		}
		total += nh.Sessions
	}
	if total != len(created) {
		t.Fatalf("per-node session counts sum to %d, want %d", total, len(created))
	}
}

func TestRouterMergesMetricsWithNodeLabels(t *testing.T) {
	_, _, _, router := startCluster(t, 2)
	c := client.New(router.URL)
	if _, err := c.CreateSession(context.Background(), api.SessionSpec{Dataset: "census"}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(router.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	// The merged document must still be a valid exposition (the strict in-repo
	// parser is the same gate the single-node /metrics passes).
	if _, err := obstest.ValidateExposition(text); err != nil {
		t.Fatalf("merged exposition invalid: %v\n%s", err, text)
	}
	for _, want := range []string{`node="n1"`, `node="n2"`, "aware_router_node_alive", "aware_sessions_live"} {
		if !strings.Contains(text, want) {
			t.Fatalf("merged exposition missing %q", want)
		}
	}
	// Exactly one TYPE line per family even though two nodes emitted it.
	if got := strings.Count(text, "# TYPE aware_http_requests_total "); got != 1 {
		t.Fatalf("family metadata emitted %d times, want once", got)
	}
}

// gaugeBytes fetches a session's gauge through the router as raw JSON, plus
// the node that served it.
func gaugeBytes(t *testing.T, routerURL string, id int64) ([]byte, string) {
	t.Helper()
	resp, err := http.Get(routerURL + api.Prefix + "/sessions/" + cluster.SessionKey(id) + "/gauge")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gauge session %d: status %d: %s", id, resp.StatusCode, raw)
	}
	return raw, resp.Header.Get(api.NodeHeader)
}

// TestRouterFailoverReplaysJournals is the failover acceptance test: kill a
// node mid-session and assert (a) the in-flight request pattern — the next
// request for a dead node's session — succeeds via the router's internal
// retry, (b) the successor rebuilt each session by journal replay to
// bit-identical gauge state, and (c) placement of the surviving node's
// sessions never moved.
func TestRouterFailoverReplaysJournals(t *testing.T) {
	nodes, servers, _, router := startCluster(t, 2)
	c := client.New(router.URL)
	ctx := context.Background()

	// Spread sessions over both nodes and give each a real exploration:
	// a filtered visualization (spends α-wealth on the rule-2 hypothesis),
	// a descriptive one, and a comparison between them.
	pred := json.RawMessage(`{"type": "equals", "column": "salary_over_50k", "value": "true"}`)
	var ids []int64
	for i := 0; i < 10; i++ {
		info, err := c.CreateSession(ctx, api.SessionSpec{Dataset: "census"})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, info.ID)
		if _, err := c.CreateVisualization(ctx, info.ID, api.CreateVisualizationRequest{Target: "gender", Predicate: pred}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.CreateVisualization(ctx, info.ID, api.CreateVisualizationRequest{Target: "gender"}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Compare(ctx, info.ID, api.CompareRequest{A: 1, B: 2}); err != nil {
			t.Fatal(err)
		}
	}

	before := make(map[int64][]byte)
	owner := make(map[int64]string)
	perNode := map[string]int{}
	for _, id := range ids {
		raw, node := gaugeBytes(t, router.URL, id)
		before[id] = raw
		owner[id] = node
		perNode[node]++
	}
	if perNode["n1"] == 0 || perNode["n2"] == 0 {
		t.Fatalf("placement did not use both nodes: %v", perNode)
	}

	// Fail-stop node n1. Its journal directory outlives the process, which is
	// the contract journal-replay failover is built on.
	servers[0].CloseClientConnections()
	servers[0].Close()

	for _, id := range ids {
		raw, node := gaugeBytes(t, router.URL, id)
		if owner[id] == nodes[0].Name {
			if node != nodes[1].Name {
				t.Fatalf("session %d not failed over to %s (served by %q)", id, nodes[1].Name, node)
			}
		} else if node != owner[id] {
			t.Fatalf("session %d moved from %s to %s without its node dying", id, owner[id], node)
		}
		if !bytes.Equal(raw, before[id]) {
			t.Fatalf("session %d gauge changed across failover\nbefore: %s\nafter:  %s", id, before[id], raw)
		}
	}

	// The merged listing still shows every session, and the cluster reports
	// itself degraded but serving.
	list, err := c.Sessions(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Sessions) != len(ids) {
		t.Fatalf("listing after failover has %d sessions, want %d", len(list.Sessions), len(ids))
	}
	resp, err := http.Get(router.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health cluster.ClusterHealth
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "degraded" {
		t.Fatalf("cluster status %q after a node death, want degraded", health.Status)
	}
	if health.Failovers < 1 || health.Restored < int64(perNode["n1"]) {
		t.Fatalf("router stats did not record the failover: %+v", health)
	}

	// A dead node's sessions keep working: a fresh step on a restored session
	// lands on the successor and is journaled there.
	for _, id := range ids {
		if owner[id] != nodes[0].Name {
			continue
		}
		if _, err := c.GroupBy(ctx, id, api.GroupByRequest{Row: "gender", Col: "salary_over_50k"}); err != nil {
			t.Fatalf("step on restored session %d: %v", id, err)
		}
		break
	}
}

func TestRouterCreateAgainstDeadNodeRetries(t *testing.T) {
	// With one of two nodes dead, every create must still succeed — the
	// router walks the ring to an alive owner.
	_, servers, _, router := startCluster(t, 2)
	servers[1].CloseClientConnections()
	servers[1].Close()
	c := client.New(router.URL)
	ctx := context.Background()
	for i := 0; i < 6; i++ {
		if _, err := c.CreateSession(ctx, api.SessionSpec{Dataset: "census"}); err != nil {
			t.Fatalf("create %d with a dead node: %v", i, err)
		}
	}
}

func TestRouterPassesThroughErrorEnvelopes(t *testing.T) {
	_, _, _, router := startCluster(t, 2)
	c := client.New(router.URL)
	ctx := context.Background()
	_, err := c.Gauge(ctx, 999)
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeSessionNotFound || apiErr.Status != http.StatusNotFound {
		t.Fatalf("gauge on a missing session = %v, want session_not_found 404", err)
	}
	_, err = c.CreateSession(ctx, api.SessionSpec{Dataset: "nope"})
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeDatasetUnknown {
		t.Fatalf("create with unknown dataset = %v, want dataset_unknown", err)
	}

	// A step enters a session only through /steps: the owner answers the
	// typed step paths, proxied, as unknown routes.
	info, err := c.CreateSession(ctx, api.SessionSpec{Dataset: "census"})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"visualizations", "compare", "derive", "join", "groupby", "hypotheses/1/star"} {
		url := fmt.Sprintf("%s%s/sessions/%d/%s", router.URL, api.Prefix, info.ID, path)
		resp, err := http.Post(url, "application/json", strings.NewReader(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		var body api.ErrorBody
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusNotFound || body.Code != api.CodeNotFound {
			t.Errorf("POST %s through the router: status %d, code %q (%v), want 404 %s", path, resp.StatusCode, body.Code, err, api.CodeNotFound)
		}
	}
}

// TestRouterRejectsUnprefixedAPIPaths checks that the router serves the API
// only under api.Prefix: an unprefixed create is an unknown route.
func TestRouterRejectsUnprefixedAPIPaths(t *testing.T) {
	_, _, _, router := startCluster(t, 2)
	resp, err := http.Post(router.URL+"/sessions", "application/json", strings.NewReader(`{"dataset": "census"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /sessions through the router: status %d, want 404", resp.StatusCode)
	}
}

// TestRouterCreateDecodesLikeANode sends each malformed create body to a
// node and through the router: both answer the same status and the same
// error envelope, trailing data included.
func TestRouterCreateDecodesLikeANode(t *testing.T) {
	_, servers, _, router := startCluster(t, 1)
	post := func(url, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(url+api.Prefix+"/sessions", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(raw)
	}
	for _, body := range []string{
		`{"dataset": "census"} trailing garbage`,
		`{"dataset": "census"}{"dataset": "census"}`,
		`{"dataset": "census", "shards": 2}`,
		`{"not json`,
		`{}`,
	} {
		nodeStatus, nodeBody := post(servers[0].URL, body)
		routerStatus, routerBody := post(router.URL, body)
		if nodeStatus != http.StatusBadRequest || routerStatus != nodeStatus || routerBody != nodeBody {
			t.Errorf("%s:\nnode   %d %s\nrouter %d %s", body, nodeStatus, nodeBody, routerStatus, routerBody)
		}
	}
}
