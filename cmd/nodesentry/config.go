package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"nodesentry"
)

// loadConfig overlays a JSON config file onto the default options. The
// paper's artifact drives its pipeline from a config.yml; this CLI accepts
// the equivalent as JSON (stdlib-only). Keys are the json tags of
// nodesentry.Options; absent keys keep the defaults, so a config file only
// needs the knobs it changes, and an unknown key is an error:
//
//	{
//	  "epochs": 24,
//	  "k_sigma": 3,
//	  "model": {"experts": 3, "top_k": 1}
//	}
func loadConfig(path string) (nodesentry.Options, error) {
	opts := nodesentry.DefaultOptions()
	data, err := os.ReadFile(path)
	if err != nil {
		return opts, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&opts); err != nil {
		return nodesentry.DefaultOptions(), fmt.Errorf("config %s: %w", path, err)
	}
	return opts, nil
}
