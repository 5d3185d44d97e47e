// Magic strings and frame versions for every persisted cordial stream
// (model files and engine snapshots), and the one reader and writer of a
// model file, behind PatternClassifier's and CrossRowPredictor's LoadModel
// and SaveModel. Bump a version when its payload format changes; LoadModel
// / ParseState reject mismatches with a ParseError instead of misparsing a
// stream from another build.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>

namespace cordial::ml {
class Classifier;
}  // namespace cordial::ml

namespace cordial::core {

inline constexpr char kPatternModelMagic[] = "cordial_pattern_model";
inline constexpr char kCrossRowModelMagic[] = "cordial_crossrow_model";
// v5: binary payload (persist/binary_io.hpp codec, DESIGN.md §16) that
// leads with the feature count as a varint, so a stale model trained
// against a different extractor layout is rejected at load time instead of
// silently mispredicting from shifted feature columns; then the learner tag
// and the trees, each behind its byte length as a varint so that the trees
// decode in parallel, doubles as raw IEEE-754 bits. A tree is its table of
// distinct leaf tuples, then its nodes in pre-order with no child offsets.
// v2 (the same fields as `%.17g` text), v3 (the trees without their
// lengths) and v4 (nodes with child offsets and leaf values inline) are
// retired: their frames fail with a version-mismatch ParseError, and their
// models must be retrained.
inline constexpr std::uint32_t kModelFrameVersion = 5;

inline constexpr char kEngineStateMagic[] = "cordial_engine_state";
// v5: binary payload (persist/binary_io.hpp codec) whose header carries the
// engine's skew clock and whose bank blobs hold only what the decoder
// cannot compute (DESIGN.md §14) — varint counts, sorted rows as first
// value plus gaps, doubles as raw IEEE-754 bits behind presence masks, and
// one classification view, written only after a bank's first UER. v1
// (text), v2 (binary with replayer windows), v3 (fixed-width blobs) and v4
// (blobs that also carried the derived counts, a live and a frozen view)
// are retired: their frames fail with a version-mismatch ParseError.
inline constexpr std::uint32_t kEngineStateVersion = 5;

// Delta snapshot: only the banks dirtied since the last checkpoint, plus the
// global counters, in the same binary payload shape as the full. Applied on
// top of a restored full state. v1 (with replayer windows), v2 (fixed-width
// blobs) and v3 (engine state v4's blobs) are retired.
inline constexpr char kEngineDeltaMagic[] = "cordial_engine_delta";
inline constexpr std::uint32_t kEngineDeltaVersion = 4;

/// Writes `model` as a model file: one `magic` frame (kModelFrameVersion)
/// whose payload is `num_features` as a varint, then the classifier
/// (ml::Classifier::Encode), encoded and closed in one buffer (CloseFrame)
/// and written once.
void SaveModelFrame(std::ostream& out, const char* magic,
                    std::size_t num_features, const ml::Classifier& model);

/// Reads the rest of `in` once and decodes the model file SaveModelFrame
/// wrote from those bytes (ReadFramedView): ParseError, naming `context`,
/// on a stream longer than one frame can be (refused before it is read
/// whole), on anything the frame reader or the classifier decoder refuses,
/// on bytes after the frame or after the classifier, on a feature count
/// other than `num_features` — a model trained against another feature
/// layout would decode and then mispredict from shifted columns — and on a
/// class count other than `num_classes`, which the caller reads its
/// predictions by.
std::unique_ptr<ml::Classifier> LoadModelFrame(std::istream& in,
                                               const char* magic,
                                               const char* context,
                                               std::size_t num_features,
                                               int num_classes);

}  // namespace cordial::core
