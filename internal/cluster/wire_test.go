package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"aware/internal/api"
	"aware/internal/cluster"
	"aware/internal/core"
)

// checkCompactSized asserts that a response is one compact JSON document
// framed by its Content-Length, and that only whitespace separates it from
// its pretty-printed form: doc (a pointer to the endpoint's document type) is
// decoded from the body and re-encoded with two-space indentation, and that
// form must compact back to the body byte for byte and decode to the same
// value.
func checkCompactSized(t *testing.T, method, url, body string, wantStatus int, doc any) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s %s: status %d, want %d: %s", method, url, resp.StatusCode, wantStatus, raw)
	}
	if got := resp.Header.Get("Content-Length"); got != strconv.Itoa(len(raw)) {
		t.Errorf("%s %s: Content-Length %q, body is %d bytes", method, url, got, len(raw))
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("%s %s: Content-Type %q", method, url, ct)
	}
	if bytes.IndexByte(raw, '\n') != len(raw)-1 {
		t.Fatalf("%s %s: body is not one line ending in a newline: %q", method, url, raw)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, raw); err != nil {
		t.Fatalf("%s %s: body is not JSON: %v", method, url, err)
	}
	if !bytes.Equal(append(compact.Bytes(), '\n'), raw) {
		t.Errorf("%s %s: body is not compact: %q", method, url, raw)
	}

	if err := json.Unmarshal(raw, doc); err != nil {
		t.Fatalf("%s %s: decoding into %T: %v", method, url, doc, err)
	}
	var pretty bytes.Buffer
	enc := json.NewEncoder(&pretty)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		t.Fatal(err)
	}
	compact.Reset()
	if err := json.Compact(&compact, pretty.Bytes()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(compact.Bytes(), '\n'), raw) {
		t.Errorf("%s %s: body is not the compact form of its %T document:\n got %s\nwant %s", method, url, doc, raw, compact.Bytes())
	}
	var fromBody, fromPretty any
	if err := json.Unmarshal(raw, &fromBody); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(pretty.Bytes(), &fromPretty); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromBody, fromPretty) {
		t.Errorf("%s %s: compact and pretty-printed bodies decode differently", method, url)
	}
}

// TestJSONResponsesCompactAndSized holds every JSON response of awared and of
// the router to one compact line with an exact Content-Length: the read
// endpoints, a step, a domain error, the mux's converted 404 and 405, and the
// router's own create, list, proxied step and node_unavailable answers.
func TestJSONResponsesCompactAndSized(t *testing.T) {
	_, servers, _, router := startCluster(t, 1)
	node := servers[0].URL
	const viz = `{"op": "add_visualization", "target": "gender", "predicate": {"type": "equals", "column": "salary_over_50k", "value": "true"}}`

	t.Run("awared", func(t *testing.T) {
		v1 := node + api.Prefix
		var info api.SessionInfo
		checkCompactSized(t, http.MethodPost, v1+"/sessions", `{"dataset": "census"}`, http.StatusCreated, &info)
		sess := v1 + "/sessions/" + cluster.SessionKey(info.ID)
		checkCompactSized(t, http.MethodPost, sess+"/steps", viz, http.StatusCreated, new(api.StepResponse))
		for _, tc := range []struct {
			path string
			doc  any
		}{
			{sess + "/gauge", new(api.Gauge)},
			{sess + "/report", new(core.Report)},
			{sess + "/log", new(api.LogResponse)},
			{sess, new(api.SessionInfo)},
			{v1 + "/sessions", new(api.SessionList)},
			{v1 + "/datasets", new(api.DatasetList)},
			{node + "/healthz", new(api.Health)},
		} {
			checkCompactSized(t, http.MethodGet, tc.path, "", http.StatusOK, tc.doc)
		}
		checkCompactSized(t, http.MethodGet, v1+"/sessions/999999/gauge", "", http.StatusNotFound, new(api.ErrorBody))
		var notFound, notAllowed api.ErrorBody
		checkCompactSized(t, http.MethodGet, node+"/no/such/route", "", http.StatusNotFound, &notFound)
		checkCompactSized(t, http.MethodDelete, sess+"/gauge", "", http.StatusMethodNotAllowed, &notAllowed)
		if notFound.Code != api.CodeNotFound || notAllowed.Code != api.CodeMethodNotAllowed {
			t.Errorf("converted envelopes carry codes %q and %q", notFound.Code, notAllowed.Code)
		}
	})

	t.Run("router", func(t *testing.T) {
		v1 := router.URL + api.Prefix
		var info api.SessionInfo
		checkCompactSized(t, http.MethodPost, v1+"/sessions", `{"dataset": "census"}`, http.StatusCreated, &info)
		sess := v1 + "/sessions/" + cluster.SessionKey(info.ID)
		checkCompactSized(t, http.MethodGet, v1+"/sessions", "", http.StatusOK, new(api.SessionList))
		checkCompactSized(t, http.MethodGet, router.URL+"/healthz", "", http.StatusOK, new(cluster.ClusterHealth))
		checkCompactSized(t, http.MethodPost, sess+"/steps", viz, http.StatusCreated, new(api.StepResponse))

		servers[0].CloseClientConnections()
		servers[0].Close()
		var unavailable api.ErrorBody
		checkCompactSized(t, http.MethodGet, sess+"/gauge", "", http.StatusServiceUnavailable, &unavailable)
		if unavailable.Code != api.CodeNodeUnavailable {
			t.Errorf("gauge with every node dead answered %q, want %q", unavailable.Code, api.CodeNodeUnavailable)
		}
	})
}

// writeCountingConn counts the writes made on a server connection and, like
// *net.TCPConn, implements io.ReaderFrom, which net/http's response writer
// uses for bodies copied into it with io.Copy.
type writeCountingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c writeCountingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

func (c writeCountingConn) ReadFrom(r io.Reader) (int64, error) {
	return io.Copy(struct{ io.Writer }{c}, r)
}

type writeCountingListener struct {
	net.Listener
	writes *atomic.Int64
}

func (l writeCountingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return writeCountingConn{Conn: c, writes: l.writes}, nil
}

// TestRouterOneWritePerProxiedResponse: a step answer relayed by the router
// leaves it in one write, header and body together, as it leaves awared.
func TestRouterOneWritePerProxiedResponse(t *testing.T) {
	_, ts := startNode(t, "n1", t.TempDir())
	rt, err := cluster.NewRouter(cluster.Config{
		Nodes:          []cluster.Node{{Name: "n1", URL: ts.URL}},
		Logger:         discardLogger(),
		HealthInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	var writes atomic.Int64
	router := httptest.NewUnstartedServer(rt.Handler())
	router.Listener = writeCountingListener{Listener: router.Listener, writes: &writes}
	router.Start()
	t.Cleanup(router.Close)

	c := router.Client()
	resp, err := c.Post(router.URL+api.Prefix+"/sessions", "application/json", strings.NewReader(`{"dataset": "census"}`))
	if err != nil {
		t.Fatal(err)
	}
	var info api.SessionInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	steps := router.URL + api.Prefix + "/sessions/" + cluster.SessionKey(info.ID) + "/steps"
	for _, target := range []string{"gender", "education", "occupation"} {
		body := `{"op": "add_visualization", "target": "` + target + `", "predicate": {"type": "equals", "column": "salary_over_50k", "value": "true"}}`
		before := writes.Load()
		resp, err := c.Post(steps, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("step on %s: status %d: %s", target, resp.StatusCode, raw)
		}
		if len(raw) <= 512 {
			t.Fatalf("step on %s answered %d bytes; the check needs more than 512", target, len(raw))
		}
		if got := writes.Load() - before; got != 1 {
			t.Errorf("step on %s: the router's answer took %d writes, want 1", target, got)
		}
	}
}
