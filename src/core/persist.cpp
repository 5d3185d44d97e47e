#include "core/persist.hpp"

#include <istream>
#include <ostream>
#include <string>
#include <string_view>

#include "common/check.hpp"
#include "common/framing.hpp"
#include "ml/classifier.hpp"
#include "persist/binary_io.hpp"

namespace cordial::core {

namespace {

/// The most bytes a model file holds: one frame of the largest payload,
/// behind a header line far shorter than 4 KiB.
constexpr std::uint64_t kMaxModelFileBytes = kMaxFramePayloadBytes + 4096;

/// The rest of `in`: a seekable stream is sized and read in one call, any
/// other read to its end. ParseError naming `context`, before more than
/// kMaxModelFileBytes are read, when the rest is longer than that.
std::string ReadRest(std::istream& in, const char* context) {
  const auto too_long = [&](std::uint64_t bytes) {
    throw ParseError(std::string(context) + ": " + std::to_string(bytes) +
                     "+ bytes, more than one model frame holds");
  };
  std::string bytes;
  const std::streampos start = in.tellg();
  if (start != std::streampos(-1) && in.seekg(0, std::ios::end)) {
    const std::streampos end = in.tellg();
    in.seekg(start);
    if (end != std::streampos(-1) && end >= start) {
      const auto size = static_cast<std::uint64_t>(end - start);
      if (size > kMaxModelFileBytes) too_long(size);
      bytes.resize(static_cast<std::size_t>(size));
      in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
      bytes.resize(static_cast<std::size_t>(in.gcount()));
      return bytes;
    }
  }
  in.clear();
  char chunk[4096];
  while (in.read(chunk, sizeof(chunk)) || in.gcount() > 0) {
    bytes.append(chunk, static_cast<std::size_t>(in.gcount()));
    if (bytes.size() > kMaxModelFileBytes) too_long(bytes.size());
  }
  return bytes;
}

}  // namespace

void SaveModelFrame(std::ostream& out, const char* magic,
                    std::size_t num_features, const ml::Classifier& model) {
  std::string frame;
  persist::BinaryWriter writer(frame);
  writer.Var(num_features);
  model.Encode(writer);
  CloseFrame(frame, 0, magic, kModelFrameVersion);
  out.write(frame.data(), static_cast<std::streamsize>(frame.size()));
}

std::unique_ptr<ml::Classifier> LoadModelFrame(std::istream& in,
                                               const char* magic,
                                               const char* context,
                                               std::size_t num_features,
                                               int num_classes) {
  const std::string bytes = ReadRest(in, context);
  std::string_view rest(bytes);
  persist::BinaryReader reader(
      ReadFramedView(rest, magic, kModelFrameVersion), context);
  ExpectNoTrailingBytes(rest, context);
  const std::uint64_t saved = reader.Var();
  if (saved != num_features) {
    reader.Fail("feature count mismatch (model has " + std::to_string(saved) +
                ", extractor expects " + std::to_string(num_features) + ")");
  }
  std::unique_ptr<ml::Classifier> model =
      ml::DecodeClassifier(reader, num_features);
  reader.ExpectEnd();
  if (model->num_classes() != num_classes) {
    reader.Fail("class count mismatch (model has " +
                std::to_string(model->num_classes()) + ", predictor expects " +
                std::to_string(num_classes) + ")");
  }
  return model;
}

}  // namespace cordial::core
