package tilecache

import (
	"context"
	"fmt"

	"geosel/internal/geodata"
)

// DefaultTileTheta is the visibility threshold a bare tile request
// implies: a zoom-z tile is half of the viewport zoomFor matches to it,
// so the session-equivalent θ is thetaFrac of twice the tile side.
// Clients wanting a specific θ pass it explicitly.
func DefaultTileTheta(z int32, thetaFrac float64) float64 {
	return thetaFrac * 2 * Side(z)
}

// CachedTile is one materialized tile as GET /tiles serves it: the
// ETag is known from the lookup alone, the payload is rendered only
// when asked for — a revalidation that ends in a 304 renders nothing.
type CachedTile struct {
	c    *Cache
	e    *entry
	objs []geodata.Object
}

// ETag returns the tile's strong ETag. It is derived from the key plus
// the entry's compute version, which fully determine the payload bytes
// — equal ETags imply equal payloads, so If-None-Match revalidation
// and CDN caching are sound.
func (t CachedTile) ETag() string {
	k := t.e.key
	return fmt.Sprintf("\"gst1-%d-%d-%d-b%d-k%d-v%d\"", k.T.Z, k.T.X, k.T.Y, k.Band, k.K, t.e.born)
}

// AppendPayload appends the tile in the wire format (see wire.go).
func (t CachedTile) AppendPayload(dst []byte) []byte {
	t.c.stats.tilePayloads.Add(1)
	return appendWire(dst, t.e, t.objs)
}

// Tile looks one materialized tile up, computing it on a miss.
//
// version must be the view's pinned snapshot version; the returned tile
// is validated against it exactly like a stitched viewport's tiles.
func (c *Cache) Tile(ctx context.Context, view geodata.View, version uint64, z, x, y int, theta float64, k int) (CachedTile, error) {
	if z < 0 || z > maxZoom {
		return CachedTile{}, fmt.Errorf("tilecache: zoom %d outside [0, %d]", z, maxZoom)
	}
	n := 1 << uint(z)
	if x < 0 || x >= n || y < 0 || y >= n {
		return CachedTile{}, fmt.Errorf("tilecache: tile (%d, %d) outside the zoom-%d grid", x, y, z)
	}
	if k <= 0 {
		return CachedTile{}, fmt.Errorf("tilecache: k = %d must be positive", k)
	}
	if theta < 0 {
		return CachedTile{}, fmt.Errorf("tilecache: theta = %v must be non-negative", theta)
	}
	key := Key{
		T:    Tile{Z: int32(z), X: int32(x), Y: int32(y)},
		Band: bandFor(theta, int32(z)),
		K:    int32(k),
	}
	sc := c.getScratch()
	e, _, err := c.getTile(ctx, view, version, key, sc)
	c.putScratch(sc)
	if err != nil {
		return CachedTile{}, err
	}
	return CachedTile{c: c, e: e, objs: view.Collection().Objects}, nil
}

// TilePayload is Tile for a caller that wants both halves at once: the
// payload appended to dst, and the ETag.
func (c *Cache) TilePayload(ctx context.Context, view geodata.View, version uint64, z, x, y int, theta float64, k int, dst []byte) ([]byte, string, error) {
	t, err := c.Tile(ctx, view, version, z, x, y, theta, k)
	if err != nil {
		return nil, "", err
	}
	return t.AppendPayload(dst), t.ETag(), nil
}
