#pragma once
// Hash-consed symbolic expressions for the semantic-equivalence engine.
//
// The symbolic executor (eval.hpp) evaluates one loop iteration at 64-bit
// lane granularity and represents every produced value as a node in this
// arena.  Nodes are interned (hash-consed), so two structurally identical
// expressions -- even when produced by evaluating two *different* kernels
// -- always share one ExprId, and equivalence checks reduce to integer
// comparisons.
//
// Integer state (pointers, induction variables) never becomes an Expr:
// it is kept in closed affine form (sum of coeff*symbol + constant) so
// that addresses stay comparable across pointer bumps, scaled indices and
// mechanical unrolling.  Memory is modeled as 8-byte cells keyed by the
// affine address; a Load leaf names the cell it reads.
//
// Canonicalization has two modes.  Strict keeps the exact FP evaluation
// tree (only commutative operand ordering, which is value-preserving even
// for IEEE floats) -- two kernels strict-equal compute bit-identical
// results.  Reassoc additionally flattens +/* into sorted n-ary forms and
// lowers FMA into mul+add, so kernels that differ only by reassociation,
// accumulator splitting or FP contraction normalize to the same form.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace incore::equiv {

using ExprId = std::uint32_t;
inline constexpr ExprId kNoExpr = 0xffffffffu;

/// Closed affine integer form over symbolic registers: sum(coeff*sym) + c.
/// Terms are sorted by symbol id and never carry a zero coefficient, so
/// structural equality is semantic equality.
struct Affine {
  std::vector<std::pair<std::uint32_t, long long>> terms;
  long long c = 0;

  auto operator<=>(const Affine&) const = default;

  [[nodiscard]] bool is_constant() const { return terms.empty(); }

  static Affine constant(long long v) { return Affine{{}, v}; }
  static Affine symbol(std::uint32_t sym) { return Affine{{{sym, 1}}, 0}; }

  Affine& operator+=(const Affine& o);
  Affine& operator+=(long long v) { c += v; return *this; }
  [[nodiscard]] Affine operator+(const Affine& o) const;
  [[nodiscard]] Affine operator-(const Affine& o) const;
  [[nodiscard]] Affine scaled(long long k) const;
};

enum class ExprOp : std::uint8_t {
  Input,  // live-in register lane; a = register root, b = lane index
  Const,  // numeric constant; a = raw bit pattern
  Load,   // 8-byte memory cell; a = index into the arena's affine table
  Add,    // binary (strict) FP add
  Sub,
  Mul,    // binary (strict) FP multiply
  Div,    // kids[0] / kids[1]
  Fma,    // kids[0]*kids[1] + kids[2], single rounding
  Neg,
  Sqrt,
  AddN,   // canonical reassoc forms: sorted n-ary sums/products
  MulN,
};

[[nodiscard]] const char* to_string(ExprOp op);

struct ExprNode {
  ExprOp op = ExprOp::Const;
  std::uint64_t a = 0;  // leaf payload (root id / const bits / affine index)
  std::uint64_t b = 0;  // secondary leaf payload (lane index)
  std::vector<ExprId> kids;

  bool operator==(const ExprNode&) const = default;
};

/// Canonicalization mode; see the header comment.
enum class CanonMode : std::uint8_t { Strict, Reassoc };

/// Interning arena.  One arena is shared between the two kernels being
/// compared so that equal canonical ids mean equal symbolic values.
/// Single-threaded by design (the equivalence engine owns one privately).
class Arena {
 public:
  ExprId input(std::uint32_t root, int lane);
  ExprId constant_bits(std::uint64_t bits);
  ExprId zero() { return constant_bits(0); }
  ExprId load(const Affine& cell);
  ExprId unary(ExprOp op, ExprId x);
  ExprId binary(ExprOp op, ExprId x, ExprId y);
  ExprId fma(ExprId x, ExprId y, ExprId acc);
  ExprId nary(ExprOp op, std::vector<ExprId> kids);

  [[nodiscard]] const ExprNode& at(ExprId id) const { return nodes_[id]; }
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }

  /// Memoized canonical form of `id` under `mode`.
  ExprId canonical(ExprId id, CanonMode mode);

  /// Human-readable rendering; `sym` names affine symbols and Input roots.
  [[nodiscard]] std::string to_string(
      ExprId id, const std::function<std::string(std::uint32_t)>& sym) const;
  [[nodiscard]] std::string to_string(
      const Affine& a,
      const std::function<std::string(std::uint32_t)>& sym) const;

 private:
  ExprId intern(ExprNode n);

  struct NodeHash {
    std::size_t operator()(const ExprNode& n) const;
  };

  std::vector<ExprNode> nodes_;
  std::unordered_map<ExprNode, ExprId, NodeHash> interned_;
  std::vector<Affine> affines_;
  std::map<Affine, std::uint64_t> affine_ids_;
  std::unordered_map<ExprId, ExprId> canon_[2];
};

}  // namespace incore::equiv
