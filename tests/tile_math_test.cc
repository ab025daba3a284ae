// TileGrid: the slippy-map addressing layer of the tile server. Tile
// bounds must tile the world exactly (edge tiles snapped to the
// dataset bounds), TileAt must invert TileBounds, degenerate worlds
// must normalize to positive area, and a viewport's covering tiles
// must decompose its point count exactly (verified against
// UniformGrid::CountInRect, the engine's exact counting path).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "geom/rect.h"
#include "index/uniform_grid.h"
#include "service/tile_math.h"
#include "test_util.h"

namespace vas {
namespace {

const Rect kWorld = Rect::Of(-10.0, 2.0, 30.0, 18.0);

TEST(TileMathTest, ZoomZeroIsTheWholeWorld) {
  TileGrid grid(kWorld);
  EXPECT_EQ(grid.TileBounds(TileKey{0, 0, 0}), kWorld);
  EXPECT_EQ(TileGrid::TilesPerAxis(0), 1u);
  EXPECT_EQ(TileGrid::TilesPerAxis(3), 8u);
}

TEST(TileMathTest, KeyValidation) {
  EXPECT_TRUE(TileGrid::IsValid(TileKey{0, 0, 0}));
  EXPECT_TRUE(TileGrid::IsValid(TileKey{3, 7, 7}));
  EXPECT_FALSE(TileGrid::IsValid(TileKey{3, 8, 0}));
  EXPECT_FALSE(TileGrid::IsValid(TileKey{3, 0, 8}));
  EXPECT_FALSE(TileGrid::IsValid(TileKey{TileGrid::kMaxZoom + 1, 0, 0}));
  EXPECT_EQ(TileKey({5, 3, 9}).ToString(), "5/3/9");
}

TEST(TileMathTest, EdgeTilesSnapExactlyToWorldBounds) {
  TileGrid grid(kWorld);
  for (uint32_t z : {1u, 2u, 5u}) {
    uint32_t n = TileGrid::TilesPerAxis(z);
    // North-west corner tile: exact west and north edges.
    Rect nw = grid.TileBounds(TileKey{z, 0, 0});
    EXPECT_EQ(nw.min_x, kWorld.min_x);
    EXPECT_EQ(nw.max_y, kWorld.max_y);
    // South-east corner tile: exact east and south edges.
    Rect se = grid.TileBounds(TileKey{z, n - 1, n - 1});
    EXPECT_EQ(se.max_x, kWorld.max_x);
    EXPECT_EQ(se.min_y, kWorld.min_y);
  }
}

TEST(TileMathTest, AdjacentTilesShareEdgesExactly) {
  TileGrid grid(kWorld);
  const uint32_t z = 4;
  uint32_t n = TileGrid::TilesPerAxis(z);
  for (uint32_t y = 0; y < n; ++y) {
    for (uint32_t x = 0; x + 1 < n; ++x) {
      EXPECT_EQ(grid.TileBounds(TileKey{z, x, y}).max_x,
                grid.TileBounds(TileKey{z, x + 1, y}).min_x);
    }
  }
  for (uint32_t x = 0; x < n; ++x) {
    for (uint32_t y = 0; y + 1 < n; ++y) {
      EXPECT_EQ(grid.TileBounds(TileKey{z, x, y}).min_y,
                grid.TileBounds(TileKey{z, x, y + 1}).max_y);
    }
  }
}

TEST(TileMathTest, TileAtInvertsTileBounds) {
  TileGrid grid(kWorld);
  for (uint32_t z : {0u, 1u, 3u, 7u}) {
    uint32_t n = TileGrid::TilesPerAxis(z);
    for (uint32_t y = 0; y < n; y += (n > 8 ? 13 : 1)) {
      for (uint32_t x = 0; x < n; x += (n > 8 ? 11 : 1)) {
        TileKey key{z, x, y};
        EXPECT_EQ(grid.TileAt(z, grid.TileBounds(key).Center()), key)
            << "z=" << z << " x=" << x << " y=" << y;
      }
    }
  }
}

TEST(TileMathTest, TileRowsCountFromTheNorthEdge) {
  TileGrid grid(kWorld);
  // A point near the world's top edge is in row 0; near the bottom, in
  // the last row — slippy-map orientation, not cartesian.
  EXPECT_EQ(grid.TileAt(2, Point{0.0, 17.9}).y, 0u);
  EXPECT_EQ(grid.TileAt(2, Point{0.0, 2.1}).y, 3u);
}

TEST(TileMathTest, OutsidePointsClampIntoBorderTiles) {
  TileGrid grid(kWorld);
  const uint32_t z = 3;
  uint32_t last = TileGrid::TilesPerAxis(z) - 1;
  EXPECT_EQ(grid.TileAt(z, Point{-1000.0, 1000.0}), (TileKey{z, 0, 0}));
  EXPECT_EQ(grid.TileAt(z, Point{1000.0, -1000.0}), (TileKey{z, last, last}));
  // The extreme dataset coordinates themselves land in edge tiles, not
  // one past the end.
  EXPECT_EQ(grid.TileAt(z, Point{kWorld.max_x, kWorld.min_y}),
            (TileKey{z, last, last}));
  EXPECT_EQ(grid.TileAt(z, Point{kWorld.min_x, kWorld.max_y}),
            (TileKey{z, 0, 0}));
}

TEST(TileMathTest, DegenerateWorldsNormalizeToPositiveArea) {
  // Empty bounds (no points), a single point, and axis-degenerate lines
  // must all yield a grid whose tiles have positive extent.
  for (const Rect& world :
       {Rect(), Rect::Of(3.0, 4.0, 3.0, 4.0), Rect::Of(0.0, 1.0, 9.0, 1.0),
        Rect::Of(2.0, -5.0, 2.0, 5.0)}) {
    TileGrid grid(world);
    EXPECT_GT(grid.world().width(), 0.0);
    EXPECT_GT(grid.world().height(), 0.0);
    Rect tile = grid.TileBounds(TileKey{2, 1, 1});
    EXPECT_GT(tile.width(), 0.0);
    EXPECT_GT(tile.height(), 0.0);
    // The normalized world still covers the original data locations.
    if (!world.empty()) {
      EXPECT_TRUE(grid.world().Contains(world.Center()));
    }
  }
  // Non-degenerate bounds pass through untouched.
  EXPECT_EQ(TileGrid(kWorld).world(), kWorld);
}

TEST(TileMathTest, ViewportDecompositionMatchesExactCounts) {
  // The serving contract: fetching a viewport's covering tiles (every
  // tile of the zoom whose bounds meet the viewport) shows every point
  // exactly once. Sum of exact counts over tile ∩ viewport must equal
  // the exact count over the viewport itself, with
  // UniformGrid::CountInRect (the engine's counting path) as oracle.
  Dataset data = test::Skewed(20000);
  Rect world = data.Bounds();
  TileGrid grid(world);
  UniformGrid counter(world, 64, 64);
  counter.Assign(data.points);

  const Rect viewports[] = {
      world,
      Rect::Of(world.min_x + world.width() * 0.21,
               world.min_y + world.height() * 0.33,
               world.min_x + world.width() * 0.68,
               world.min_y + world.height() * 0.71),
      // Hangs over the world's east edge.
      Rect::Of(world.min_x + world.width() * 0.8, world.min_y,
               world.max_x + world.width(), world.max_y),
  };
  for (const Rect& viewport : viewports) {
    Rect clipped = Rect::Of(std::max(viewport.min_x, world.min_x),
                            std::max(viewport.min_y, world.min_y),
                            std::min(viewport.max_x, world.max_x),
                            std::min(viewport.max_y, world.max_y));
    size_t expected = counter.CountInRect(clipped, data.points);
    for (uint32_t z : {0u, 1u, 3u, 5u}) {
      size_t total = 0;
      const uint32_t per_axis = TileGrid::TilesPerAxis(z);
      for (uint32_t y = 0; y < per_axis; ++y) {
        for (uint32_t x = 0; x < per_axis; ++x) {
          Rect tile = grid.TileBounds(TileKey{z, x, y});
          if (!tile.Intersects(viewport)) continue;
          Rect cell = Rect::Of(std::max(tile.min_x, clipped.min_x),
                               std::max(tile.min_y, clipped.min_y),
                               std::min(tile.max_x, clipped.max_x),
                               std::min(tile.max_y, clipped.max_y));
          total += counter.CountInRect(cell, data.points);
        }
      }
      EXPECT_EQ(total, expected) << "zoom " << z;
    }
  }
}

TEST(TileMathTest, EveryPointLandsInExactlyOneTile) {
  // TileAt assigns each point one tile; that tile's bounds must contain
  // the point (after edge clamping this holds even for the extremes).
  Dataset data = test::Skewed(5000);
  TileGrid grid(data.Bounds());
  for (uint32_t z : {1u, 4u}) {
    for (const Point& p : data.points) {
      TileKey key = grid.TileAt(z, p);
      ASSERT_TRUE(TileGrid::IsValid(key));
      ASSERT_TRUE(grid.TileBounds(key).Contains(p))
          << "point (" << p.x << "," << p.y << ") at zoom " << z;
    }
  }
}

}  // namespace
}  // namespace vas
