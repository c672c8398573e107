package cluster_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strconv"
	"strings"
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
