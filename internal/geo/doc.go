// Package geo provides the planar geometry primitives used throughout the
// MUAA system: points in the unit square, Euclidean distances, axis-aligned
// rectangles, and a uniform-grid spatial index answering the two range
// queries every assignment algorithm needs — "which vendors' advertising
// disks cover this customer?" and "which customers lie inside this vendor's
// disk?".
//
// The paper's data space is [0,1]² (both the remapped Foursquare check-ins
// and the synthetic workloads live there), so a uniform grid is the right
// index: cell occupancy is near-uniform for vendors and the disk radii are
// small (0.01–0.05), making candidate sets tiny. The grid is stored as row
// runs + offsets — one slice of points per grid row, grouped by cell, and a
// flat table of where each cell starts — so a range query reads one
// contiguous run per row of its window; an insert appends to its row and the
// first query after it regroups the rows appended to (grid.go). A k-d tree
// (kdtree.go) answers the same two queries for comparison, and k nearest
// neighbours besides; ablation A8 races the two.
//
// Two structures serve the concurrent broker specifically:
//
//   - Stripes (stripes.go) partitions a Rect into horizontal bands whose
//     edges fall on the grid's cell rows, so the stripes' grid scans
//     concatenate into one order. The broker shards campaign state by
//     stripe, and the contiguous band interval Range returns for a query
//     disk doubles as its deadlock-free lock-acquisition order (DESIGN.md
//     §8).
//   - Grid.InsertWithRadius indexes a disk by its center so CoveredBy can
//     answer "which disks cover this point" per shard.
//
// Stripes is immutable. A Grid is guarded by whoever owns it (each broker
// shard guards its own): inserts must not race with queries, while queries
// may run concurrently — the regrouping a first query does is serialised
// inside the Grid.
package geo
