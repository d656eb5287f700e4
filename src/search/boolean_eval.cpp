#include "search/boolean_eval.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "live/tombstones.hpp"
#include "postings/boolean_ops.hpp"

namespace hetindex {

namespace {

using Clock = std::chrono::steady_clock;

/// docid() of an exhausted iterator.
constexpr std::uint32_t kEnd = std::numeric_limits<std::uint32_t>::max();

/// Steps between clock reads (a clock read per step would dominate short
/// lists).
constexpr std::uint64_t kDeadlineStride = 256;

/// State shared by every operator of one evaluation.
struct Context {
  const TombstoneSet* excluded = nullptr;
  std::optional<Clock::time_point> deadline;
  std::uint64_t steps = 0;
  bool expired = false;       ///< the deadline passed: every operator winds down
  bool no_positions = false;  ///< a PHRASE/NEAR operand carried no positions
  std::uint64_t rejected = 0;

  /// Counts one step; true once the deadline has passed.
  bool tick() {
    if (++steps % kDeadlineStride == 0 && deadline && Clock::now() >= *deadline) {
      expired = true;
    }
    return expired;
  }
  [[nodiscard]] bool stopped() const { return expired || no_positions; }
};

/// A doc-ordered stream of (docid, tf). It starts unpositioned: the first
/// call must be seek().
class DocIterator {
 public:
  virtual ~DocIterator() = default;
  /// The current document; kEnd once exhausted.
  [[nodiscard]] std::uint32_t docid() const { return doc_; }
  [[nodiscard]] virtual std::uint32_t tf() const = 0;
  virtual void next() = 0;
  /// Moves to the first document >= target; never moves backwards.
  virtual void seek(std::uint32_t target) = 0;
  /// Upper bound on the documents it yields; intersections order by it.
  [[nodiscard]] virtual std::uint64_t size() const = 0;

 protected:
  std::uint32_t doc_ = kEnd;
};

/// One term's postings cursor; a null cursor is an empty list.
class Leaf final : public DocIterator {
 public:
  Leaf(std::string term, std::unique_ptr<PostingsCursor> cursor)
      : term_(std::move(term)), cursor_(std::move(cursor)) {}

  [[nodiscard]] std::uint32_t tf() const override { return cursor_->tf(); }
  void next() override {
    if (doc_ == kEnd) return;
    cursor_->next();
    sync();
  }
  void seek(std::uint32_t target) override {
    if (cursor_ == nullptr) return;
    cursor_->seek(target);
    sync();
  }
  [[nodiscard]] std::uint64_t size() const override {
    return cursor_ != nullptr ? cursor_->size() : 0;
  }

  [[nodiscard]] const std::string& term() const { return term_; }
  /// Appends the current document's positions; false when the list has none.
  [[nodiscard]] bool positions(std::vector<std::uint32_t>& out) {
    return cursor_->current_positions(out);
  }
  [[nodiscard]] std::uint64_t blocks_skipped() const {
    return cursor_ != nullptr ? cursor_->blocks_skipped() : 0;
  }

 private:
  void sync() { doc_ = cursor_->valid() ? cursor_->docid() : kEnd; }

  std::string term_;
  std::unique_ptr<PostingsCursor> cursor_;
};

/// One intersection member: a term's leaf or a nested operator.
struct Member {
  DocIterator* it = nullptr;
  Leaf* leaf = nullptr;  ///< `it` itself when the member is a term
};

/// How one child of an AND admits a document and adds to its tf.
struct Constraint {
  QueryOp op = QueryOp::kTerm;  ///< kPhrase/kNear check positions; others add a tf
  std::size_t first = 0;        ///< its first member
  std::size_t count = 1;        ///< members it spans: one per PHRASE/NEAR term
  std::uint32_t window = 0;
};

class Intersection final : public DocIterator {
 public:
  Intersection(Context& ctx, std::vector<Member> members, std::vector<Constraint> constraints,
               const std::function<BloomChain(const std::string&)>& bloom)
      : ctx_(ctx), members_(std::move(members)), constraints_(std::move(constraints)) {
    // The rarest member drives; followers answer seeks rarest-first, so the
    // cheapest refutation runs before the expensive common lists.
    order_.resize(members_.size());
    std::iota(order_.begin(), order_.end(), std::size_t{0});
    std::stable_sort(order_.begin(), order_.end(), [this](std::size_t a, std::size_t b) {
      return members_[a].it->size() < members_[b].it->size();
    });
    empty_ = members_.empty() || members_[order_.front()].it->size() == 0;
    // The driver enumerates its own list, so only follower terms' filters
    // can reject anything.
    if (bloom) {
      for (std::size_t i = 1; i < order_.size(); ++i) {
        const Leaf* leaf = members_[order_[i]].leaf;
        if (leaf == nullptr) continue;
        BloomChain chain = bloom(leaf->term());
        if (!chain.empty()) chains_.push_back(std::move(chain));
      }
    }
  }

  [[nodiscard]] std::uint32_t tf() const override { return tf_; }
  void next() override {
    if (doc_ == kEnd) return;
    driver()->next();
    find();
  }
  void seek(std::uint32_t target) override {
    if (started_ && doc_ >= target) return;
    started_ = true;
    if (empty_) {
      doc_ = kEnd;
      return;
    }
    driver()->seek(target);
    find();
  }
  [[nodiscard]] std::uint64_t size() const override {
    return empty_ ? 0 : members_[order_.front()].it->size();
  }

 private:
  [[nodiscard]] DocIterator* driver() const { return members_[order_.front()].it; }

  /// From the driver's current document on, stops at the first document
  /// every member holds and every constraint admits.
  void find() {
    DocIterator* lead = driver();
    while (true) {
      const std::uint32_t d = lead->docid();
      if (d == kEnd || ctx_.tick()) break;
      if (ctx_.excluded != nullptr && ctx_.excluded->contains(d)) {
        lead->next();
        continue;
      }
      // One definite "absent" saves every follower seek and the block
      // decodes behind them. Filters have no false negatives, so they
      // change only the work done, never the answer.
      if (std::any_of(chains_.begin(), chains_.end(),
                      [d](const BloomChain& c) { return !c.may_contain(d); })) {
        ++ctx_.rejected;
        lead->next();
        continue;
      }
      std::uint32_t ahead = d;
      for (std::size_t i = 1; i < order_.size() && ahead == d; ++i) {
        DocIterator* follower = members_[order_[i]].it;
        follower->seek(d);
        ahead = follower->docid();
      }
      if (ahead == kEnd) break;
      if (ahead != d) {
        lead->seek(ahead);
        continue;
      }
      if (admit()) {
        doc_ = d;
        return;
      }
      if (ctx_.no_positions) break;
      lead->next();
    }
    doc_ = kEnd;
  }

  /// Checks the positional constraints on a document every member holds,
  /// and sums its tf. False when a PHRASE/NEAR finds no match there.
  bool admit() {
    std::uint32_t sum = 0;
    for (const Constraint& c : constraints_) {
      if (c.op != QueryOp::kPhrase && c.op != QueryOp::kNear) {
        sum += members_[c.first].it->tf();
        continue;
      }
      positions_.resize(c.count);
      for (std::size_t j = 0; j < c.count; ++j) {
        positions_[j].clear();
        if (!members_[c.first + j].leaf->positions(positions_[j])) {
          ctx_.no_positions = true;
          return false;
        }
      }
      const std::uint32_t matches = c.op == QueryOp::kPhrase
                                        ? phrase_match_count(positions_)
                                        : near_match_count(positions_, c.window);
      if (matches == 0) return false;
      sum += matches;
    }
    tf_ = sum;
    return true;
  }

  Context& ctx_;
  std::vector<Member> members_;
  std::vector<Constraint> constraints_;
  std::vector<std::size_t> order_;  ///< driver first, then followers rarest-first
  std::vector<BloomChain> chains_;  ///< follower terms' filters
  DocTermPositions positions_;
  bool empty_ = false;
  bool started_ = false;
  std::uint32_t tf_ = 0;
};

/// OR/bag: every document of any child, tf summed over the children
/// holding it.
class Union final : public DocIterator {
 public:
  explicit Union(std::vector<DocIterator*> children) : children_(std::move(children)) {}

  [[nodiscard]] std::uint32_t tf() const override { return tf_; }
  void next() override {
    if (doc_ == kEnd) return;
    for (DocIterator* c : children_) {
      if (c->docid() == doc_) c->next();
    }
    settle();
  }
  void seek(std::uint32_t target) override {
    if (started_ && doc_ >= target) return;
    started_ = true;
    for (DocIterator* c : children_) c->seek(target);
    settle();
  }
  [[nodiscard]] std::uint64_t size() const override {
    std::uint64_t total = 0;
    for (const DocIterator* c : children_) total += c->size();
    return total;
  }

 private:
  void settle() {
    doc_ = kEnd;
    for (const DocIterator* c : children_) doc_ = std::min(doc_, c->docid());
    tf_ = 0;
    if (doc_ == kEnd) return;
    for (const DocIterator* c : children_) {
      if (c->docid() == doc_) tf_ += c->tf();
    }
  }

  std::vector<DocIterator*> children_;
  bool started_ = false;
  std::uint32_t tf_ = 0;
};

/// Builds the operator tree and owns every node of it.
class Compiler {
 public:
  Compiler(const BooleanLeaves& source, Context& ctx) : source_(source), ctx_(ctx) {}

  DocIterator* compile(const QueryNode& node) {
    switch (node.op) {
      case QueryOp::kTerm: return leaf(node.term, /*with_positions=*/false);
      case QueryOp::kBag:
      case QueryOp::kOr: {
        std::vector<DocIterator*> children;
        children.reserve(node.children.size());
        for (const auto& child : node.children) children.push_back(compile(child));
        return own(std::make_unique<Union>(std::move(children)));
      }
      default: return intersection(node);  // kAnd, kPhrase, kNear
    }
  }

  [[nodiscard]] std::uint64_t blocks_skipped() const {
    std::uint64_t total = 0;
    for (const auto& l : leaves_) total += l->blocks_skipped();
    return total;
  }

 private:
  Leaf* leaf(const std::string& term, bool with_positions) {
    leaves_.push_back(std::make_unique<Leaf>(term, source_.open(term, with_positions)));
    return leaves_.back().get();
  }

  DocIterator* own(std::unique_ptr<DocIterator> op) {
    ops_.push_back(std::move(op));
    return ops_.back().get();
  }

  /// An AND's term and PHRASE/NEAR children become leaf members of one
  /// intersection, nested groups single members; a bare PHRASE/NEAR is an
  /// intersection with itself as the one constraint.
  DocIterator* intersection(const QueryNode& node) {
    std::vector<Member> members;
    std::vector<Constraint> constraints;
    const auto add = [&](const QueryNode& child) {
      Constraint c{child.op, members.size(), 1, child.window};
      switch (child.op) {
        case QueryOp::kTerm: {
          Leaf* l = leaf(child.term, false);
          members.push_back({l, l});
          break;
        }
        case QueryOp::kPhrase:
        case QueryOp::kNear:
          for (const auto& term : child.terms) {
            Leaf* l = leaf(term, true);
            members.push_back({l, l});
          }
          c.count = child.terms.size();
          break;
        default: members.push_back({compile(child), nullptr}); break;
      }
      constraints.push_back(c);
    };
    if (node.op == QueryOp::kAnd) {
      for (const auto& child : node.children) add(child);
    } else {
      add(node);
    }
    return own(std::make_unique<Intersection>(ctx_, std::move(members), std::move(constraints),
                                              source_.bloom));
  }

  const BooleanLeaves& source_;
  Context& ctx_;
  std::vector<std::unique_ptr<Leaf>> leaves_;
  std::vector<std::unique_ptr<DocIterator>> ops_;
};

}  // namespace

Expected<BooleanResult> evaluate_boolean(const QueryNode& root, const BooleanLeaves& leaves,
                                         const TombstoneSet* excluded,
                                         std::optional<Clock::time_point> deadline) {
  Context ctx;
  ctx.excluded = excluded;
  ctx.deadline = deadline;
  Compiler compiler(leaves, ctx);
  DocIterator* top = compiler.compile(root);

  // A document is emitted only while no operator has stopped: after an
  // expiry the current one may rest on a half-advanced child.
  BooleanResult result;
  for (top->seek(0); !ctx.stopped() && top->docid() != kEnd; top->next()) {
    const std::uint32_t d = top->docid();
    if (excluded == nullptr || !excluded->contains(d)) {
      result.matches.doc_ids.push_back(d);
      result.matches.tfs.push_back(top->tf());
    }
    if (ctx.tick()) break;
  }
  if (ctx.no_positions) {
    return Error{ErrorCode::kInvalidArgument, "phrase/NEAR query requires a positional index"};
  }
  result.degraded = ctx.expired;
  result.blocks_skipped = compiler.blocks_skipped();
  result.blooms_rejected = ctx.rejected;
  return result;
}

}  // namespace hetindex
