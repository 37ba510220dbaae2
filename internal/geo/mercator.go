package geo

import "math"

// WorldUnit is the canonical unit-square world rectangle that the
// generators and experiments use. All synthetic datasets are normalized
// into it, matching the paper's relative parameterization (Table 2 sizes
// are fractions of the whole dataset extent).
var WorldUnit = Rect{Min: Point{0, 0}, Max: Point{1, 1}}

// LonLat is a geodetic coordinate in degrees.
type LonLat struct {
	Lon, Lat float64
}

// maxMercatorLat is the latitude bound of the Web-Mercator projection.
const maxMercatorLat = 85.05112878

// Mercator projects a longitude/latitude pair onto the unit square using
// the spherical Web-Mercator projection: (0,0) is the south-west corner
// (-180°, -85.05°) and (1,1) the north-east corner. Latitudes beyond the
// Mercator bound are clamped.
func Mercator(ll LonLat) Point {
	lat := ll.Lat
	if lat > maxMercatorLat {
		lat = maxMercatorLat
	}
	if lat < -maxMercatorLat {
		lat = -maxMercatorLat
	}
	x := (ll.Lon + 180) / 360
	s := math.Sin(lat * math.Pi / 180)
	y := 0.5 + math.Log((1+s)/(1-s))/(4*math.Pi)
	return Point{X: x, Y: y}
}
