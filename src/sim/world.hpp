#pragma once

#include <vector>

#include "geom/obb.hpp"
#include "sim/trajectory.hpp"

namespace bba {

/// Extruded-rectangle obstacle: building footprint + height. Buildings are
/// the tall static landmarks whose edges the MIM-based matcher locks onto.
struct Building {
  OrientedBox2 footprint;
  double height = 10.0;
};

/// Roadside tree: a thin trunk cylinder topped by a spherical crown —
/// produces the "isolated blob" BV features the paper mentions (tree tops).
/// Degenerate parameterizations model other vegetation/furniture: a pole is
/// a tall trunk with no crown; a bush is a crown sitting on the ground.
struct Tree {
  Vec2 position{};
  double trunkHeight = 3.0;
  double trunkRadius = 0.2;
  double crownRadius = 2.0;

  static Tree pole(const Vec2& p, double height, double radius = 0.08) {
    return Tree{p, height, radius, 0.0};
  }
  static Tree bush(const Vec2& p, double radius) {
    return Tree{p, 0.0, 0.0, radius};
  }
};

/// Any car in the world — parked, moving traffic, or one of the two
/// instrumented vehicles. Dynamic geometry: the box rides the trajectory,
/// so objects scanned mid-sweep smear exactly like real lidar data.
struct SimVehicle {
  int id = 0;
  Vec3 size{4.6, 2.0, 1.6};  ///< length, width, height
  Trajectory trajectory;

  /// World-frame 3-D box at time t (box center z = height/2).
  [[nodiscard]] Box3 boxAt(double t) const {
    const Pose2 p = trajectory.pose(t);
    return Box3{Vec3{p.t.x, p.t.y, size.z / 2.0}, size, p.theta};
  }
};

/// The simulated world: static landmarks + every vehicle. Substitute for
/// the V2V4Real capture environment (see DESIGN.md).
struct World {
  std::vector<Building> buildings;
  std::vector<Tree> trees;
  std::vector<SimVehicle> vehicles;
  int egoVehicleId = -1;    ///< id of the instrumented ego car
  int otherVehicleId = -1;  ///< id of the instrumented cooperating car

  [[nodiscard]] const SimVehicle& vehicleById(int id) const;

  /// Ground-truth relative pose from the other car's frame to the ego
  /// car's frame at time t — the quantity BB-Align estimates.
  [[nodiscard]] Pose2 relativePoseOtherToEgo(double t) const;
};

}  // namespace bba
