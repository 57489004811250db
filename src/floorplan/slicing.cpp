#include "nanocost/floorplan/slicing.hpp"

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>

namespace nanocost::floorplan {

double FloorplanResult::block_area() const noexcept {
  double sum = 0.0;
  for (const PlacedBlock& b : blocks) sum += b.width * b.height;
  return sum;
}

double FloorplanResult::dead_space() const noexcept {
  const double box = area();
  return box > 0.0 ? 1.0 - block_area() / box : 0.0;
}

namespace {

constexpr int kHorizontalCut = -1;  // stack top/bottom: w = max, h = sum
constexpr int kVerticalCut = -2;    // place left/right: w = sum, h = max

/// One realizable shape of a subtree, with back-pointers to the child
/// shapes that produced it.
struct Shape {
  double w = 0.0;
  double h = 0.0;
  int left = -1;   // child shape indices (for internal nodes)
  int right = -1;
};

/// Keeps only Pareto-optimal shapes (no other shape with w <= and h <=),
/// sorted by ascending width.  Caps the list to bound node sizes.
std::vector<Shape> prune(std::vector<Shape> shapes, std::size_t cap = 24) {
  std::sort(shapes.begin(), shapes.end(), [](const Shape& a, const Shape& b) {
    if (a.w != b.w) return a.w < b.w;
    return a.h < b.h;
  });
  std::vector<Shape> out;
  for (const Shape& s : shapes) {
    if (out.empty() || s.h < out.back().h - 1e-12) {
      out.push_back(s);
    }
  }
  if (out.size() > cap) {
    // Thin uniformly, keeping the extremes.
    std::vector<Shape> thinned;
    const double step = static_cast<double>(out.size() - 1) / (cap - 1);
    for (std::size_t i = 0; i < cap; ++i) {
      thinned.push_back(out[static_cast<std::size_t>(std::llround(i * step))]);
    }
    out = std::move(thinned);
  }
  return out;
}

/// Combines child shape lists at a cut node.
std::vector<Shape> combine(const std::vector<Shape>& left, const std::vector<Shape>& right,
                           int op) {
  std::vector<Shape> out;
  out.reserve(left.size() * right.size());
  for (std::size_t i = 0; i < left.size(); ++i) {
    for (std::size_t j = 0; j < right.size(); ++j) {
      Shape s;
      if (op == kVerticalCut) {
        s.w = left[i].w + right[j].w;
        s.h = std::max(left[i].h, right[j].h);
      } else {
        s.w = std::max(left[i].w, right[j].w);
        s.h = left[i].h + right[j].h;
      }
      s.left = static_cast<int>(i);
      s.right = static_cast<int>(j);
      out.push_back(s);
    }
  }
  return prune(std::move(out));
}

/// Evaluation tree node (rebuilt per evaluation; small n keeps it cheap).
struct Node {
  int op = 0;        // >= 0: leaf block index; kHorizontalCut / kVerticalCut
  int left = -1;     // node indices
  int right = -1;
  std::vector<Shape> shapes;
};

struct Evaluation {
  double area = 1e300;
  std::vector<Node> nodes;
  int root = -1;
  int best_shape = -1;
};

Evaluation evaluate(const std::vector<int>& expr,
                    const std::vector<std::vector<Shape>>& leaf_shapes) {
  Evaluation eval;
  std::vector<int> stack;
  for (const int token : expr) {
    Node node;
    node.op = token;
    if (token >= 0) {
      node.shapes = leaf_shapes[static_cast<std::size_t>(token)];
    } else {
      const int right = stack.back();
      stack.pop_back();
      const int left = stack.back();
      stack.pop_back();
      node.left = left;
      node.right = right;
      node.shapes = combine(eval.nodes[static_cast<std::size_t>(left)].shapes,
                            eval.nodes[static_cast<std::size_t>(right)].shapes, token);
    }
    eval.nodes.push_back(std::move(node));
    stack.push_back(static_cast<int>(eval.nodes.size()) - 1);
  }
  eval.root = stack.back();
  const auto& root_shapes = eval.nodes[static_cast<std::size_t>(eval.root)].shapes;
  for (std::size_t i = 0; i < root_shapes.size(); ++i) {
    const double a = root_shapes[i].w * root_shapes[i].h;
    if (a < eval.area) {
      eval.area = a;
      eval.best_shape = static_cast<int>(i);
    }
  }
  return eval;
}

/// Validity of a Polish expression: operand/operator balance.
bool is_valid(const std::vector<int>& expr, std::size_t n_blocks) {
  int depth = 0;
  std::size_t operands = 0;
  for (const int token : expr) {
    if (token >= 0) {
      ++depth;
      ++operands;
    } else {
      depth -= 1;  // pops two, pushes one
      if (depth < 1) return false;
    }
  }
  return depth == 1 && operands == n_blocks;
}

void assign_positions(const Evaluation& eval, int node_idx, int shape_idx, double x,
                      double y, const std::vector<Block>& blocks,
                      std::vector<PlacedBlock>& out) {
  const Node& node = eval.nodes[static_cast<std::size_t>(node_idx)];
  const Shape& shape = node.shapes[static_cast<std::size_t>(shape_idx)];
  if (node.op >= 0) {
    PlacedBlock placed;
    placed.name = blocks[static_cast<std::size_t>(node.op)].name;
    placed.x = x;
    placed.y = y;
    placed.width = shape.w;
    placed.height = shape.h;
    out.push_back(placed);
    return;
  }
  const Node& left = eval.nodes[static_cast<std::size_t>(node.left)];
  const Shape& left_shape = left.shapes[static_cast<std::size_t>(shape.left)];
  assign_positions(eval, node.left, shape.left, x, y, blocks, out);
  if (node.op == kVerticalCut) {
    assign_positions(eval, node.right, shape.right, x + left_shape.w, y, blocks, out);
  } else {
    assign_positions(eval, node.right, shape.right, x, y + left_shape.h, blocks, out);
  }
}

}  // namespace

FloorplanResult floorplan(const std::vector<Block>& blocks, const FloorplanParams& params) {
  if (blocks.empty()) {
    throw std::invalid_argument("floorplan needs at least one block");
  }
  if (!(params.cooling > 0.0 && params.cooling < 1.0)) {
    throw std::invalid_argument("cooling factor must be in (0, 1)");
  }
  if (!(params.stop_temperature_fraction > 0.0)) {
    throw std::invalid_argument("stop temperature fraction must be > 0");
  }
  if (!std::isfinite(params.initial_temperature)) {
    throw std::invalid_argument("initial temperature must be finite (0 or below = auto)");
  }
  // Leaf shape options from each block's aspect range.
  std::vector<std::vector<Shape>> leaf_shapes;
  for (const Block& b : blocks) {
    if (!(b.area > 0.0) || !(b.min_aspect > 0.0) || !(b.max_aspect >= b.min_aspect) ||
        b.shape_options < 1) {
      throw std::invalid_argument("degenerate block '" + b.name + "'");
    }
    std::vector<Shape> shapes;
    for (int i = 0; i < b.shape_options; ++i) {
      const double t = b.shape_options == 1
                           ? 0.5
                           : static_cast<double>(i) / (b.shape_options - 1);
      const double aspect = b.min_aspect * std::pow(b.max_aspect / b.min_aspect, t);
      Shape s;
      s.w = std::sqrt(b.area * aspect);
      s.h = b.area / s.w;
      shapes.push_back(s);
    }
    leaf_shapes.push_back(prune(std::move(shapes)));
  }

  // Initial expression: ((...(b0 b1 op) b2 op) ... ), alternating cuts.
  std::vector<int> expr;
  expr.push_back(0);
  for (std::size_t i = 1; i < blocks.size(); ++i) {
    expr.push_back(static_cast<int>(i));
    expr.push_back(i % 2 == 0 ? kHorizontalCut : kVerticalCut);
  }

  Evaluation current = evaluate(expr, leaf_shapes);
  std::vector<int> best_expr = expr;
  double best_area = current.area;

  if (blocks.size() > 1) {
    std::mt19937_64 rng(params.seed);
    std::uniform_real_distribution<double> uni(0.0, 1.0);
    std::uniform_int_distribution<std::size_t> pick(0, expr.size() - 1);

    double temperature = params.initial_temperature > 0.0
                             ? params.initial_temperature
                             : best_area * 0.05;
    const double stop = temperature * params.stop_temperature_fraction;
    double current_area = current.area;

    while (temperature > stop) {
      for (int m = 0; m < params.moves_per_temperature; ++m) {
        std::vector<int> candidate = expr;
        const double kind = uni(rng);
        if (kind < 0.4) {
          // M1: swap two random operands.
          std::size_t i = pick(rng), j = pick(rng);
          while (candidate[i] < 0) i = pick(rng);
          while (candidate[j] < 0 || j == i) j = pick(rng);
          std::swap(candidate[i], candidate[j]);
        } else if (kind < 0.7) {
          // M2: complement a random operator.
          std::size_t i = pick(rng);
          bool found = false;
          for (std::size_t tries = 0; tries < candidate.size(); ++tries) {
            if (candidate[i] < 0) {
              found = true;
              break;
            }
            i = (i + 1) % candidate.size();
          }
          if (!found) continue;
          candidate[i] =
              candidate[i] == kHorizontalCut ? kVerticalCut : kHorizontalCut;
        } else {
          // M3: swap adjacent operand/operator if still valid.
          const std::size_t i = pick(rng);
          if (i + 1 >= candidate.size()) continue;
          std::swap(candidate[i], candidate[i + 1]);
          if (!is_valid(candidate, blocks.size())) continue;
        }

        const Evaluation trial = evaluate(candidate, leaf_shapes);
        const double delta = trial.area - current_area;
        if (delta <= 0.0 || uni(rng) < std::exp(-delta / temperature)) {
          expr = std::move(candidate);
          current_area = trial.area;
          if (current_area < best_area) {
            best_area = current_area;
            best_expr = expr;
          }
        }
      }
      temperature *= params.cooling;
    }
  }

  // Final evaluation and position assignment from the best expression.
  const Evaluation final_eval = evaluate(best_expr, leaf_shapes);
  const Shape& root_shape =
      final_eval.nodes[static_cast<std::size_t>(final_eval.root)]
          .shapes[static_cast<std::size_t>(final_eval.best_shape)];
  FloorplanResult result;
  result.width = root_shape.w;
  result.height = root_shape.h;
  assign_positions(final_eval, final_eval.root, final_eval.best_shape, 0.0, 0.0, blocks,
                   result.blocks);
  return result;
}

}  // namespace nanocost::floorplan
