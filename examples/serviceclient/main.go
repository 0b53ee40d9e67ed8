// Example serviceclient starts an in-process sccgd service on a loopback
// port and drives it the way an external client would: submit a corpus
// dataset job over HTTP, poll until it finishes, print the report, then
// resubmit the same dataset to show the cache answering without any new
// kernel launches.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
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

	svc := sccg.NewService(sccg.ServiceOptions{Devices: 2})
	defer svc.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go func() { _ = http.Serve(ln, svc.Handler()) }()
	base := "http://" + ln.Addr().String()
	fmt.Println("service listening on", base)

	submit := func() jobResp {
		body, _ := json.Marshal(map[string]any{"corpus": "oligoastroIII_1"})
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

	again := submit()
	fmt.Printf("resubmitted: job %s cached=%v state=%s\n", again.ID, again.Cached, again.State)
	if !again.Cached || again.ID != first.ID {
		log.Fatal("expected the repeat submission to be served from cache")
	}
	fmt.Println("cache hit: no new work scheduled")
}
