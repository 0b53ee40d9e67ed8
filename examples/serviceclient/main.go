// Example serviceclient starts an in-process sccgd service on a loopback
// port and drives it the way an external client would: store a corpus
// dataset with PUT /datasets, submit a job by its content ID, poll until it
// finishes, print the report, then resubmit the same dataset to show the
// cache answering without any new kernel launches.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"repro"
)

type jobResp struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Cached bool   `json:"cached"`
	Error  string `json:"error"`
	Report *struct {
		Similarity     float64 `json:"similarity"`
		Intersecting   int     `json:"intersecting"`
		Candidates     int     `json:"candidates"`
		KernelLaunches int64   `json:"kernel_launches"`
		DeviceSeconds  float64 `json:"device_seconds"`
	} `json:"report"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("serviceclient: ")

	dir, err := os.MkdirTemp("", "serviceclient-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	st, err := sccg.OpenStore(dir)
	if err != nil {
		log.Fatal(err)
	}
	svc := sccg.NewService(sccg.ServiceOptions{Devices: 2, Store: st})
	defer svc.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go func() { _ = http.Serve(ln, svc.Handler()) }()
	base := "http://" + ln.Addr().String()
	fmt.Println("service listening on", base)

	// The dataset arrives from outside, as a segmentation pipeline would
	// upload it: one {image, tile, raw_a, raw_b} object per tile.
	spec := sccg.Representative()
	var tiles []map[string]any
	for _, task := range sccg.EncodeDataset(sccg.GenerateDataset(spec)) {
		tiles = append(tiles, map[string]any{"image": task.Image, "tile": task.Tile, "raw_a": task.RawA, "raw_b": task.RawB})
	}
	body, _ := json.Marshal(tiles)
	req, err := http.NewRequest(http.MethodPut, base+"/datasets?name="+spec.Name, bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	var dataset struct {
		ID    string `json:"id"`
		Tiles int    `json:"tiles"`
		Error string `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&dataset)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		log.Fatalf("PUT /datasets = %d (%v): %s", resp.StatusCode, err, dataset.Error)
	}
	fmt.Printf("stored %s: %d tiles as dataset %s\n", spec.Name, dataset.Tiles, dataset.ID[:12])

	submit := func() jobResp {
		body, _ := json.Marshal(map[string]any{"dataset_id": dataset.ID})
		resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		var j jobResp
		if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
			log.Fatal(err)
		}
		return j
	}
	poll := func(id string) jobResp {
		for {
			resp, err := http.Get(base + "/jobs/" + id)
			if err != nil {
				log.Fatal(err)
			}
			var j jobResp
			err = json.NewDecoder(resp.Body).Decode(&j)
			resp.Body.Close()
			if err != nil {
				log.Fatal(err)
			}
			if j.State == "done" || j.State == "failed" || j.State == "canceled" {
				return j
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	first := submit()
	fmt.Printf("submitted %s (state %s)\n", first.ID, first.State)
	done := poll(first.ID)
	if done.State != "done" {
		log.Fatalf("job ended %s: %s", done.State, done.Error)
	}
	fmt.Printf("similarity %.4f over %d intersecting / %d candidate pairs\n",
		done.Report.Similarity, done.Report.Intersecting, done.Report.Candidates)
	fmt.Printf("device: %d kernel launches, %.4fs modelled busy time\n",
		done.Report.KernelLaunches, done.Report.DeviceSeconds)

	launches := func() (n int64) {
		for _, d := range svc.Scheduler().DeviceStats() {
			n += d.Launches
		}
		return n
	}
	before := launches()
	again := submit()
	fmt.Printf("resubmitted: job %s cached=%v state=%s\n", again.ID, again.Cached, again.State)
	if !again.Cached || again.ID != first.ID {
		log.Fatal("expected the repeat submission to be served from cache")
	}
	if after := launches(); after != before {
		log.Fatalf("the cached repeat launched kernels: %d -> %d", before, after)
	}
	fmt.Println("cache hit: no new work scheduled")
}
