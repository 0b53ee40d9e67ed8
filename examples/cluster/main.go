// Example cluster boots a 3-node sccgd cluster in one process — three full
// service stacks, each with its own store and HTTP listener, cross-wired as
// peers — then shows the clustering contract end to end: datasets ingested
// only on node 1, a 3-way similarity matrix submitted to node 2 (which pulls
// every missing dataset peer-to-peer with digest verification and computes
// every cell itself), and the same matrix repeated on node 3, answered
// entirely from the cluster-wide result cache without a single new job
// anywhere.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"

	"repro"
)

type node struct {
	addr string
	svc  *sccg.Service
	srv  *http.Server
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("cluster: ")

	// Listeners first: every node needs the full membership up front.
	const n = 3
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = "http://" + ln.Addr().String()
	}

	nodes := make([]*node, n)
	for i := range nodes {
		dir, err := os.MkdirTemp("", fmt.Sprintf("sccgd-node%d-*", i+1))
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(dir)
		st, err := sccg.OpenStore(dir)
		if err != nil {
			log.Fatal(err)
		}
		var peers []string
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		svc := sccg.NewService(sccg.ServiceOptions{
			Devices:   1,
			Store:     st,
			Peers:     peers,
			Advertise: addrs[i],
		})
		defer svc.Close()
		srv := &http.Server{Handler: svc.Handler()}
		go srv.Serve(lns[i])
		defer srv.Close()
		nodes[i] = &node{addr: addrs[i], svc: svc, srv: srv}
		fmt.Printf("node %d serving at %s\n", i+1, addrs[i])
	}

	// Ingest three segmentation variants on node 1 only.
	base := sccg.Representative()
	base.Tiles = 3
	var ids []string
	for i, jitter := range []float64{0.00, 0.02, 0.06} {
		spec := base
		spec.Gen.JitterRadius = jitter
		man, err := sccg.IngestDataset(nodes[0].svc.Store(), sccg.GenerateDataset(spec))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("node 1 ingested algorithm %d -> %s\n", i+1, man.ID[:12])
		ids = append(ids, man.ID)
	}

	// A 3-way matrix on node 2, which holds none of the datasets: it pulls
	// them peer-to-peer (every tile digest-verified on arrival) and computes
	// the cells on the bytes it pulled.
	mst := runMatrix(nodes[1].addr, ids)
	fmt.Printf("matrix on node 2: %s, %d cells\n", mst.State, len(ids)*(len(ids)-1)/2)
	printCells(mst)

	// The repeat on node 3 is answered from the cluster-wide result cache:
	// zero new scheduler jobs on any node.
	before := jobs(nodes)
	again := runMatrix(nodes[2].addr, ids)
	fmt.Printf("repeat on node 3: %s, %d new jobs cluster-wide\n", again.State, jobs(nodes)-before)

	// /healthz reports membership.
	resp, err := http.Get(nodes[1].addr + "/healthz")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var hz struct {
		Cluster json.RawMessage `json:"cluster"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("node 2 healthz cluster block: %s\n", hz.Cluster)
}

type matrixStatus struct {
	ID      string `json:"id"`
	State   string `json:"state"`
	Version int64  `json:"version"`
	Cells   [][]struct {
		State      string  `json:"state"`
		Cached     bool    `json:"cached"`
		Similarity float64 `json:"similarity"`
	} `json:"cells"`
}

func runMatrix(base string, ids []string) matrixStatus {
	body, _ := json.Marshal(map[string]any{"datasets": ids})
	resp, err := http.Post(base+"/matrix", "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		log.Fatalf("matrix submit: %d: %s", resp.StatusCode, raw)
	}
	var mst matrixStatus
	if err := json.Unmarshal(raw, &mst); err != nil {
		log.Fatal(err)
	}
	// Long-poll: each GET returns once the run moves past the version the
	// last status carried, or when it is terminal.
	for mst.State == "running" {
		r, err := http.Get(fmt.Sprintf("%s/matrix/%s?wait=1&since=%d", base, mst.ID, mst.Version))
		if err != nil {
			log.Fatal(err)
		}
		err = json.NewDecoder(r.Body).Decode(&mst)
		r.Body.Close()
		if err != nil {
			log.Fatal(err)
		}
	}
	return mst
}

func printCells(mst matrixStatus) {
	for i := range mst.Cells {
		fmt.Print("  ")
		for j, c := range mst.Cells[i] {
			if i == j {
				fmt.Print("      - ")
				continue
			}
			fmt.Printf(" %.4f ", c.Similarity)
		}
		fmt.Println()
	}
}

func jobs(nodes []*node) int64 {
	var sum int64
	for _, nd := range nodes {
		sum += nd.svc.Scheduler().Stats().Submitted
	}
	return sum
}
