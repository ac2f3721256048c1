// Command quaestor-cli is a command-line client for a Quaestor server.
//
// Usage:
//
//	quaestor-cli -url http://localhost:8080 <command> [args]
//
// Commands:
//
//	create-table <table>                 create a table
//	create-index <table> <field.path>    create a secondary index
//	indexes <table>                      list a table's indexed paths
//	insert <table> <json>                insert a document ("_id" required)
//	get <table> <id>                     read a record (prints caching headers)
//	put <table> <id> <json>              upsert a record
//	delete <table> <id>                  delete a record
//	query <table> <filter-json> [sort] [limit] [offset]
//	subscribe <table> <filter-json>      stream change events (SSE)
//	file-put <name> <content-type> <file-path>
//	file-get <name>                      print file content
//	ebf                                  show the current filter's metadata
//	stats                                server statistics
//	snapshot                             snapshot every durable shard store (truncates WAL)
//	wal-info                             durability state: segments, batches, recovery
//	repl-status                          primary role, or a replica's per-shard lag and staleness bound
//	promote                              promote a replica to a writable primary
//	cluster-map                          versioned shard map (consistent-hash topology)
//
// A bearer token for servers with authorization enabled is passed via
// -token.
package main

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strings"
	"time"

	"quaestor/internal/bloom"
	"quaestor/internal/server"
)

type cli struct {
	base  string
	token string
	http  *http.Client
}

func main() {
	baseURL := flag.String("url", "http://localhost:8080", "Quaestor server base URL")
	token := flag.String("token", "", "bearer token (for servers with auth enabled)")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		fail("missing command; see -h")
	}
	c := &cli{base: *baseURL, token: *token, http: http.DefaultClient}

	var err error
	switch cmd := args[0]; cmd {
	case "create-table":
		err = c.simple(http.MethodPost, "/v1/tables/"+arg(args, 1), nil)
	case "create-index":
		err = c.simple(http.MethodPost, "/v1/indexes/"+arg(args, 1),
			[]byte(fmt.Sprintf(`{"path":%q}`, arg(args, 2))))
	case "indexes":
		err = c.get("/v1/indexes/" + arg(args, 1))
	case "insert":
		err = c.simple(http.MethodPost, "/v1/db/"+arg(args, 1), []byte(arg(args, 2)))
	case "get":
		err = c.get("/v1/db/" + arg(args, 1) + "/" + arg(args, 2))
	case "put":
		err = c.simple(http.MethodPut, "/v1/db/"+arg(args, 1)+"/"+arg(args, 2), []byte(arg(args, 3)))
	case "delete":
		err = c.simple(http.MethodDelete, "/v1/db/"+arg(args, 1)+"/"+arg(args, 2), nil)
	case "query":
		err = c.query(args[1:])
	case "subscribe":
		err = c.subscribe(arg(args, 1), arg(args, 2))
	case "file-put":
		err = c.filePut(arg(args, 1), arg(args, 2), arg(args, 3))
	case "file-get":
		err = c.get("/v1/files/" + arg(args, 1))
	case "ebf":
		err = c.ebf()
	case "stats":
		err = c.get("/v1/stats")
	case "snapshot":
		err = c.simple(http.MethodPost, "/v1/admin/snapshot", nil)
	case "wal-info":
		err = c.walInfo()
	case "repl-status":
		err = c.simple(http.MethodGet, "/v1/replication/status", nil)
	case "promote":
		err = c.simple(http.MethodPost, "/v1/replication/promote", nil)
	case "cluster-map":
		err = c.get("/v1/cluster/map")
	default:
		fail("unknown command %q", cmd)
	}
	if err != nil {
		fail("%v", err)
	}
}

func arg(args []string, i int) string {
	if i >= len(args) {
		fail("missing argument %d; see -h", i)
	}
	return args[i]
}

func fail(format string, a ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", a...)
	os.Exit(1)
}

func (c *cli) request(method, path string, body []byte) (*http.Response, error) {
	var rdr io.Reader
	if body != nil {
		rdr = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rdr)
	if err != nil {
		return nil, err
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	return c.http.Do(req)
}

// simple performs a request and prints the JSON response.
func (c *cli) simple(method, path string, body []byte) error {
	resp, err := c.request(method, path, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return printResponse(resp, false)
}

// get fetches a resource and prints body plus the caching headers.
func (c *cli) get(path string) error {
	resp, err := c.request(http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return printResponse(resp, true)
}

func printResponse(resp *http.Response, headers bool) error {
	if headers {
		for _, h := range []string{"Cache-Control", "ETag", "Age", "X-Cache", "X-Quaestor-Key", "X-Quaestor-Rep",
			"X-Quaestor-Replica", "X-Quaestor-Staleness-Ms", "X-Quaestor-Replica-Lag"} {
			if v := resp.Header.Get(h); v != "" {
				fmt.Printf("%s: %s\n", h, v)
			}
		}
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 400 {
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(data)))
	}
	var pretty bytes.Buffer
	if json.Indent(&pretty, data, "", "  ") == nil {
		fmt.Println(pretty.String())
	} else if len(data) > 0 {
		fmt.Println(string(data))
	} else {
		fmt.Println(resp.Status)
	}
	return nil
}

func (c *cli) query(args []string) error {
	if len(args) < 2 {
		fail("query <table> <filter-json> [sort] [limit] [offset]")
	}
	params := url.Values{}
	if args[1] != "{}" && args[1] != "" {
		params.Set("q", args[1])
	}
	if len(args) > 2 && args[2] != "" {
		params.Set("sort", args[2])
	}
	if len(args) > 3 {
		params.Set("limit", args[3])
	}
	if len(args) > 4 {
		params.Set("offset", args[4])
	}
	path := "/v1/db/" + args[0]
	if enc := params.Encode(); enc != "" {
		path += "?" + enc
	}
	return c.get(path)
}

func (c *cli) subscribe(table, filter string) error {
	params := url.Values{}
	params.Set("table", table)
	if filter != "" && filter != "{}" {
		params.Set("q", filter)
	}
	resp, err := c.request(http.MethodGet, "/v1/subscribe?"+params.Encode(), nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(data)))
	}
	fmt.Fprintln(os.Stderr, "subscribed; streaming events (Ctrl-C to stop)")
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		line := scanner.Text()
		if strings.HasPrefix(line, "data: ") {
			fmt.Println(strings.TrimPrefix(line, "data: "))
		}
	}
	return scanner.Err()
}

func (c *cli) filePut(name, contentType, filePath string) error {
	data, err := os.ReadFile(filePath)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPut, c.base+"/v1/files/"+name, bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", contentType)
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return printResponse(resp, false)
}

func (c *cli) ebf() error {
	resp, err := c.request(http.MethodGet, "/v1/ebf", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var body server.EBFResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return err
	}
	raw, err := base64.StdEncoding.DecodeString(body.Filter)
	if err != nil {
		return err
	}
	f, err := bloom.Unmarshal(raw)
	if err != nil {
		return err
	}
	fmt.Printf("bits: %d (%.1f KB)\n", f.M(), float64(f.M())/8/1024)
	fmt.Printf("hash functions: %d\n", f.K())
	fmt.Printf("stale entries: %d\n", body.Entries)
	fmt.Printf("set bits: %d (%.2f%% load)\n", f.PopCount(), 100*float64(f.PopCount())/float64(f.M()))
	fmt.Printf("estimated false positive rate: %.4f\n", f.EstimatedFalsePositiveRate())
	return nil
}

func (c *cli) walInfo() error {
	resp, err := c.request(http.MethodGet, "/v1/stats", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var body server.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return err
	}
	d := body.Durability
	if d == nil {
		fmt.Println("store is in-memory (server started without -data-dir)")
		return nil
	}
	fmt.Printf("data dir: %s\n", d.DataDir)
	fmt.Printf("wal: %d segment(s), %d bytes, fsync=%s\n", d.WAL.Segments, d.WAL.SegmentBytes, d.WAL.Fsync)
	fmt.Printf("appends: %d in %d batches (%.2f records/batch), %d fsyncs\n",
		d.WAL.Appends, d.WAL.Batches, d.WAL.MeanBatch, d.WAL.Fsyncs)
	for _, b := range d.WAL.BatchSizes {
		if b.Le == 0 {
			fmt.Printf("  batch >1024: %d\n", b.Count)
		} else {
			fmt.Printf("  batch ≤%4d: %d\n", b.Le, b.Count)
		}
	}
	if s := d.LastSnapshot; s != nil {
		fmt.Printf("last snapshot: seq %d, %d docs, %d bytes at %s\n", s.Seq, s.Docs, s.Bytes, s.At.Format(time.RFC3339))
	} else {
		fmt.Println("last snapshot: none")
	}
	r := d.Recovery
	fmt.Printf("recovery: %d docs from snapshot (seq %d) + %d log records, torn tail: %v, last seq %d, %.1fms\n",
		r.SnapshotDocs, r.SnapshotSeq, r.ReplayedRecords, r.TornTail, r.LastSeq, r.TookMs)
	return nil
}
