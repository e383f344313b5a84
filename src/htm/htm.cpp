#include "htm/htm.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/strings.h"

namespace sky::htm {

namespace {

constexpr double kPi = 3.14159265358979323846;
constexpr double kDegToRad = kPi / 180.0;
constexpr double kRadToDeg = 180.0 / kPi;
// Tolerance for boundary membership tests.
constexpr double kEpsilon = 1e-12;

// "Insideness" of p w.r.t. the triangle: the minimum of the three edge-plane
// dot products. Positive means strictly inside; the most-inside child is the
// deterministic tie-break when floating point puts a point on an edge.
double insideness(const std::array<Vec3, 3>& v, const Vec3& p) {
  const double d0 = v[0].cross(v[1]).dot(p);
  const double d1 = v[1].cross(v[2]).dot(p);
  const double d2 = v[2].cross(v[0]).dot(p);
  return std::min({d0, d1, d2});
}

Vec3 midpoint(const Vec3& a, const Vec3& b) {
  return (a + b).normalized();
}

std::array<Trixel, 4> children_of(const Trixel& t) {
  const Vec3 w0 = midpoint(t.v[1], t.v[2]);
  const Vec3 w1 = midpoint(t.v[0], t.v[2]);
  const Vec3 w2 = midpoint(t.v[0], t.v[1]);
  return {
      Trixel{t.id * 4 + 0, {t.v[0], w2, w1}},
      Trixel{t.id * 4 + 1, {t.v[1], w0, w2}},
      Trixel{t.id * 4 + 2, {t.v[2], w1, w0}},
      Trixel{t.id * 4 + 3, {w0, w1, w2}},
  };
}

}  // namespace

double Vec3::norm() const { return std::sqrt(x * x + y * y + z * z); }

Vec3 Vec3::normalized() const {
  const double n = norm();
  assert(n > 0);
  return {x / n, y / n, z / n};
}

Vec3 radec_to_vector(double ra_deg, double dec_deg) {
  const double ra = std::fmod(ra_deg, 360.0) * kDegToRad;
  const double dec = dec_deg * kDegToRad;
  const double cd = std::cos(dec);
  return {cd * std::cos(ra), cd * std::sin(ra), std::sin(dec)};
}

void vector_to_radec(const Vec3& v, double* ra_deg, double* dec_deg) {
  const Vec3 u = v.normalized();
  double ra = std::atan2(u.y, u.x) * kRadToDeg;
  if (ra < 0) ra += 360.0;
  *ra_deg = ra;
  *dec_deg = std::asin(std::clamp(u.z, -1.0, 1.0)) * kRadToDeg;
}

double angular_distance_deg(const Vec3& a, const Vec3& b) {
  const Vec3 ua = a.normalized();
  const Vec3 ub = b.normalized();
  // atan2 form is accurate for both tiny and near-antipodal separations.
  const double cross_norm = ua.cross(ub).norm();
  const double dot = ua.dot(ub);
  return std::atan2(cross_norm, dot) * kRadToDeg;
}

const std::array<Trixel, 8>& root_trixels() {
  static const std::array<Trixel, 8> roots = [] {
    const Vec3 v0{0, 0, 1};
    const Vec3 v1{1, 0, 0};
    const Vec3 v2{0, 1, 0};
    const Vec3 v3{-1, 0, 0};
    const Vec3 v4{0, -1, 0};
    const Vec3 v5{0, 0, -1};
    return std::array<Trixel, 8>{
        Trixel{8, {v1, v5, v2}},   // S0
        Trixel{9, {v2, v5, v3}},   // S1
        Trixel{10, {v3, v5, v4}},  // S2
        Trixel{11, {v4, v5, v1}},  // S3
        Trixel{12, {v1, v0, v4}},  // N0
        Trixel{13, {v4, v0, v3}},  // N1
        Trixel{14, {v3, v0, v2}},  // N2
        Trixel{15, {v2, v0, v1}},  // N3
    };
  }();
  return roots;
}

uint64_t htm_id(const Vec3& direction, int depth) {
  assert(depth >= 0 && depth <= kMaxDepth);
  const Vec3 p = direction.normalized();
  // Pick the most-inside root.
  const Trixel* current = &root_trixels()[0];
  double best = -2.0;
  for (const Trixel& root : root_trixels()) {
    const double score = insideness(root.v, p);
    if (score > best) {
      best = score;
      current = &root;
    }
  }
  Trixel node = *current;
  for (int level = 0; level < depth; ++level) {
    const auto kids = children_of(node);
    int best_child = 0;
    double best_score = -2.0;
    for (int k = 0; k < 4; ++k) {
      const double score = insideness(kids[static_cast<size_t>(k)].v, p);
      if (score > best_score) {
        best_score = score;
        best_child = k;
      }
    }
    node = kids[static_cast<size_t>(best_child)];
  }
  return node.id;
}

uint64_t htm_id_radec(double ra_deg, double dec_deg, int depth) {
  return htm_id(radec_to_vector(ra_deg, dec_deg), depth);
}

Result<int> depth_of_id(uint64_t id) {
  uint64_t lo = 8, hi = 16;
  for (int depth = 0; depth <= kMaxDepth; ++depth) {
    if (id >= lo && id < hi) return depth;
    lo *= 4;
    hi *= 4;
  }
  return Status(ErrorCode::kInvalidArgument,
                "not a valid HTM id: " + std::to_string(id));
}

Result<Trixel> trixel_from_id(uint64_t id) {
  SKY_ASSIGN_OR_RETURN(const int depth, depth_of_id(id));
  const uint64_t root_id = id >> (2 * depth);
  Trixel node = root_trixels()[root_id - 8];
  for (int level = depth - 1; level >= 0; --level) {
    const auto child = (id >> (2 * level)) & 3;
    node = children_of(node)[child];
  }
  assert(node.id == id);
  return node;
}

Result<std::string> id_to_name(uint64_t id) {
  SKY_ASSIGN_OR_RETURN(const int depth, depth_of_id(id));
  const uint64_t root_id = id >> (2 * depth);
  std::string name = root_id < 12 ? "S" : "N";
  name.push_back(static_cast<char>('0' + (root_id & 3)));
  for (int level = depth - 1; level >= 0; --level) {
    name.push_back(static_cast<char>('0' + ((id >> (2 * level)) & 3)));
  }
  return name;
}

Result<uint64_t> name_to_id(std::string_view name) {
  if (name.size() < 2 || (name[0] != 'N' && name[0] != 'S')) {
    return Status(ErrorCode::kInvalidArgument,
                  "bad HTM name: " + std::string(name));
  }
  if (name.size() > static_cast<size_t>(kMaxDepth) + 2) {
    return Status(ErrorCode::kInvalidArgument, "HTM name too deep");
  }
  uint64_t id = name[0] == 'S' ? 8 : 12;
  if (name[1] < '0' || name[1] > '3') {
    return Status(ErrorCode::kInvalidArgument, "bad HTM root digit");
  }
  id += static_cast<uint64_t>(name[1] - '0');
  for (size_t i = 2; i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '3') {
      return Status(ErrorCode::kInvalidArgument, "bad HTM child digit");
    }
    id = id * 4 + static_cast<uint64_t>(name[i] - '0');
  }
  return id;
}

Result<bool> id_contains(uint64_t id, const Vec3& direction) {
  SKY_ASSIGN_OR_RETURN(const Trixel trixel, trixel_from_id(id));
  return insideness(trixel.v, direction.normalized()) >= -kEpsilon;
}

double trixel_solid_angle_sr(const Trixel& trixel) {
  // Interior angle at each vertex: the angle between the two great-circle
  // edges meeting there, computed from edge-plane normals.
  double angle_sum = 0;
  for (int v = 0; v < 3; ++v) {
    const Vec3& at = trixel.v[static_cast<size_t>(v)];
    const Vec3& prev = trixel.v[static_cast<size_t>((v + 2) % 3)];
    const Vec3& next = trixel.v[static_cast<size_t>((v + 1) % 3)];
    const Vec3 n1 = at.cross(prev);
    const Vec3 n2 = at.cross(next);
    const double denom = n1.norm() * n2.norm();
    if (denom < 1e-15) return 0.0;  // degenerate
    const double cos_angle = std::clamp(n1.dot(n2) / denom, -1.0, 1.0);
    angle_sum += std::acos(cos_angle);
  }
  return std::max(0.0, angle_sum - kPi);  // spherical excess
}

double cap_solid_angle_sr(double radius_deg) {
  return 2.0 * kPi * (1.0 - std::cos(radius_deg * kDegToRad));
}

namespace {

// The cone's test, trig-free per trixel. A unit vertex v is inside a cap
// of radius r around c iff c.v >= cos r; the same test is spelled on the
// chord, |c - v|^2 <= (2 sin(r/2))^2, which keeps full precision for the
// smallest radii (c.v rounds to 1 there). An edge a->b with plane normal
// n = a x b is within r of c iff |c.n| <= sin r * |n| and c projects into
// the arc, i.e. (a x c).n >= 0 and (c x b).n >= 0 — no normalisation. The
// thresholds carry a slack of a few ulps so each test accepts at least what
// the exact angle comparison does: the cover stays conservative.
//
// A cone wider than 90 degrees is not convex, but its complement is: a cap
// of radius 180 - r around the antipode. Such a cone is tested against the
// complement (center and limits below describe it) and the answer
// inverted.
struct CapTest {
  Vec3 center;
  double vertex_chord2 = 0;  // vertex inside iff |center - v|^2 <= this
  double edge_sin2 = 0;      // edge near iff (center.n)^2 <= this * |n|^2
  bool wide = false;         // the cone is the complement of this cap
  // Wide only: a vertex strictly inside the complement, |center - v|^2 <
  // this. Tighter than the exact angle test, so a trixel is dropped only
  // when every vertex is surely off the cone's rim.
  double strict_chord2 = -1;
};

// Absolute slack in chord / sine units, and relative slack on the radius.
constexpr double kCapSlack = 4e-15;
constexpr double kCapRelSlack = 1e-12;

double chord_of(double angle_rad) { return 2.0 * std::sin(angle_rad / 2); }

double chord2(const Vec3& a, const Vec3& b) {
  const Vec3 d = a - b;
  return d.dot(d);
}

CapTest make_cap_test(const Vec3& center, double radius_deg) {
  CapTest cap;
  cap.wide = radius_deg > 90.0;
  cap.center = cap.wide ? center * -1.0 : center;
  const double radius = cap.wide ? 180.0 - radius_deg : radius_deg;
  const double generous =
      std::min(kPi, radius * kDegToRad * (1 + kCapRelSlack));
  const double vertex_chord = chord_of(generous) + kCapSlack;
  cap.vertex_chord2 = vertex_chord * vertex_chord;
  const double edge_sin =
      generous >= kPi / 2 ? 1.0 + kCapSlack : std::sin(generous) + kCapSlack;
  cap.edge_sin2 = edge_sin * edge_sin;
  if (cap.wide) {
    const double tight =
        (radius - 1e-12) * kDegToRad * (1 - kCapRelSlack);
    const double strict_chord = tight > 0 ? chord_of(tight) - kCapSlack : 0;
    cap.strict_chord2 = strict_chord > 0 ? strict_chord * strict_chord : -1;
  }
  return cap;
}

bool edge_near(const Vec3& a, const Vec3& b, const Vec3& c, double sin2) {
  const Vec3 n = a.cross(b);
  const double n2 = n.dot(n);
  if (n2 < 1e-30) return false;  // degenerate edge
  const double cn = c.dot(n);
  if (cn * cn > sin2 * n2) return false;
  return a.cross(c).dot(n) >= 0 && c.cross(b).dot(n) >= 0;
}

enum class CapRelation { kDisjoint, kPartial, kFull };

// The trixel against the convex cap (center, limits) of `cap`.
CapRelation classify_convex(const Trixel& t, const CapTest& cap) {
  int inside = 0;
  for (const Vec3& v : t.v) {
    if (chord2(cap.center, v) <= cap.vertex_chord2) ++inside;
  }
  if (inside == 3) return CapRelation::kFull;  // the cap is convex
  if (inside > 0) return CapRelation::kPartial;
  // No vertex inside. Cap center inside the trixel?
  if (insideness(t.v, cap.center) >= -kEpsilon) return CapRelation::kPartial;
  // Cap boundary crossing an edge interior?
  for (int e = 0; e < 3; ++e) {
    if (edge_near(t.v[static_cast<size_t>(e)],
                  t.v[static_cast<size_t>((e + 1) % 3)], cap.center,
                  cap.edge_sin2)) {
      return CapRelation::kPartial;
    }
  }
  return CapRelation::kDisjoint;
}

// The trixel against the cone. For a wide cone, a trixel fully inside the
// closed complement touches the cone at most on the shared rim circle —
// kept as partial unless every vertex is strictly interior, so exact-rim
// points are never dropped.
CapRelation classify(const Trixel& t, const CapTest& cap) {
  const CapRelation relation = classify_convex(t, cap);
  if (!cap.wide) return relation;
  switch (relation) {
    case CapRelation::kDisjoint:
      return CapRelation::kFull;
    case CapRelation::kFull:
      for (const Vec3& v : t.v) {
        if (!(chord2(cap.center, v) < cap.strict_chord2)) {
          return CapRelation::kPartial;
        }
      }
      return CapRelation::kDisjoint;
    case CapRelation::kPartial:
      break;
  }
  return CapRelation::kPartial;
}

void cover_recursive(const Trixel& t, int level, int depth, const CapTest& cap,
                     std::vector<IdRange>& out) {
  const CapRelation relation = classify(t, cap);
  if (relation == CapRelation::kDisjoint) return;
  const int remaining = depth - level;
  if (relation == CapRelation::kFull || remaining == 0) {
    const uint64_t width = 1ULL << (2 * remaining);
    out.push_back(IdRange{t.id * width, (t.id + 1) * width});
    return;
  }
  for (const Trixel& child : children_of(t)) {
    cover_recursive(child, level + 1, depth, cap, out);
  }
}

}  // namespace

std::vector<IdRange> cone_cover(const Vec3& center, double radius_deg,
                                int depth) {
  assert(depth >= 0 && depth <= kMaxDepth);
  const CapTest cap = make_cap_test(center.normalized(),
                                    std::clamp(radius_deg, 0.0, 180.0));
  std::vector<IdRange> ranges;
  for (const Trixel& root : root_trixels()) {
    cover_recursive(root, 0, depth, cap, ranges);
  }
  std::sort(ranges.begin(), ranges.end(),
            [](const IdRange& a, const IdRange& b) { return a.first < b.first; });
  // Coalesce adjacent / overlapping ranges.
  std::vector<IdRange> merged;
  for (const IdRange& range : ranges) {
    if (!merged.empty() && range.first <= merged.back().last) {
      merged.back().last = std::max(merged.back().last, range.last);
    } else {
      merged.push_back(range);
    }
  }
  return merged;
}

}  // namespace sky::htm
