// Package controlplane names the partitioned control loop by its historical
// surface. The loop itself lives in package controller, where the single
// controller is its one-partition case; this package holds only aliases and
// a constructor, and remains because the benchmark harness (perfbench)
// imports it.
package controlplane

import (
	"grefar/internal/controller"
	"grefar/internal/model"
)

// Config tunes a Plane; see controller.Config.
type Config = controller.Config

// Plane is a partitioned controller; see controller.Controller.
type Plane = controller.Controller

// PartitionStats is one partition's commit-protocol counters.
type PartitionStats = controller.PartitionStats

// New builds a partitioned controller; conns[i] must serve data center i.
func New(c *model.Cluster, conns []controller.AgentConn, cfg Config) (*Plane, error) {
	return controller.NewPartitioned(c, conns, cfg)
}
