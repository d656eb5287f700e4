#pragma once
/// \file boolean_ops.hpp
/// Boolean retrieval primitives over decoded postings lists — the standard
/// consumer of inverted files (conjunctive/disjunctive web queries). Lists
/// are doc-ID sorted, so AND/OR/NOT are linear merges; AND additionally
/// offers a galloping variant for asymmetric list sizes.

#include <vector>

#include "postings/query.hpp"

namespace hetindex {

/// docs(a) ∩ docs(b); tf of a match is the sum of both sides' tfs (a
/// simple proximity-free relevance signal).
QueryPostings postings_and(const QueryPostings& a, const QueryPostings& b);

/// docs(a) ∪ docs(b), tfs summed on overlap.
QueryPostings postings_or(const QueryPostings& a, const QueryPostings& b);

/// docs(a) \ docs(b), tfs taken from a.
QueryPostings postings_and_not(const QueryPostings& a, const QueryPostings& b);

/// Galloping (exponential-search) intersection: O(min·log(max/min)), the
/// right tool when one term is rare and the other common (Zipf makes this
/// the typical case).
QueryPostings postings_and_galloping(const QueryPostings& a, const QueryPostings& b);

/// Per-term positions of one document, in query order: entry t holds the
/// ascending in-doc positions of term t (as current_positions() yields
/// them). What the cursor-tree evaluator (search/boolean_eval.hpp) hands
/// the phrase/NEAR verifiers below for each candidate document.
using DocTermPositions = std::vector<std::vector<std::uint32_t>>;

/// Number of phrase starts in one document: positions p of term 0 such
/// that term t occurs at p + t for every t. The tf of a phrase match.
std::uint32_t phrase_match_count(const DocTermPositions& term_positions);

/// Number of proximity anchors in one document: positions p of term 0
/// (the anchor term) such that every other term has an occurrence within
/// distance `window` of p, in either direction. The tf of a NEAR match.
std::uint32_t near_match_count(const DocTermPositions& term_positions, std::uint32_t window);

}  // namespace hetindex
