#include "sim/mobility.h"

#include <cmath>

namespace politewifi::sim {

WaypointMover::WaypointMover(Radio& radio, Scheduler& scheduler,
                             std::vector<Position> route, double speed_mps,
                             Duration tick)
    : radio_(radio),
      scheduler_(scheduler),
      route_(std::move(route)),
      speed_mps_(speed_mps),
      tick_(tick) {}

void WaypointMover::start() {
  if (!route_.empty()) {
    radio_.set_position(route_.front());
    next_waypoint_ = 1;
  }
  if (next_waypoint_ >= route_.size()) {
    finished_ = true;
    return;
  }
  scheduler_.schedule_in(tick_, [this] { step(); });
}

void WaypointMover::step() {
  if (finished_) return;
  double budget = speed_mps_ * to_seconds(tick_);
  Position pos = radio_.position();

  while (budget > 0.0 && next_waypoint_ < route_.size()) {
    const Position& target = route_[next_waypoint_];
    const double dist = distance(pos, target);
    if (dist <= budget) {
      pos = target;
      budget -= dist;
      travelled_m_ += dist;
      ++next_waypoint_;
    } else {
      const double f = budget / dist;
      pos.x += (target.x - pos.x) * f;
      pos.y += (target.y - pos.y) * f;
      travelled_m_ += budget;
      budget = 0.0;
    }
  }
  radio_.set_position(pos);

  if (next_waypoint_ >= route_.size()) {
    finished_ = true;
    return;
  }
  scheduler_.schedule_in(tick_, [this] { step(); });
}

}  // namespace politewifi::sim
