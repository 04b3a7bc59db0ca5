#include "eval/method.h"

#include <functional>
#include <utility>

#include "protocol/cfo_protocol.h"
#include "protocol/hierarchy_protocol.h"
#include "protocol/sw_protocol.h"

namespace numdist {

namespace {

// The only concrete method type: a name, the Table-2 capability flag, and
// the factory binding a Protocol at (epsilon, d). Everything else is the
// Protocol's business.
class ProtocolMethod final : public DistributionMethod {
 public:
  using Factory = std::function<Result<ProtocolPtr>(double, size_t)>;

  ProtocolMethod(std::string name, bool yields_distribution, Factory factory)
      : name_(std::move(name)),
        yields_distribution_(yields_distribution),
        factory_(std::move(factory)) {}

  const std::string& name() const override { return name_; }
  bool yields_distribution() const override { return yields_distribution_; }

  Result<ProtocolPtr> MakeProtocol(double epsilon, size_t d) const override {
    return factory_(epsilon, d);
  }

 private:
  std::string name_;
  bool yields_distribution_;
  Factory factory_;
};

}  // namespace

Result<MethodOutput> DistributionMethod::Run(const std::vector<double>& values,
                                             double epsilon, size_t d,
                                             Rng& rng) const {
  Result<ProtocolPtr> protocol = MakeProtocol(epsilon, d);
  if (!protocol.ok()) return protocol.status();
  return RunProtocol(*protocol.value(), values, rng);
}

std::unique_ptr<DistributionMethod> MakeSwEmsMethod() {
  return std::make_unique<ProtocolMethod>(
      "SW-EMS", /*yields_distribution=*/true, [](double epsilon, size_t d) {
        SwEstimatorOptions options;
        options.epsilon = epsilon;
        options.d = d;
        options.post = SwEstimatorOptions::Post::kEms;
        return MakeSwProtocol(options);
      });
}

std::unique_ptr<DistributionMethod> MakeSwEmMethod() {
  return std::make_unique<ProtocolMethod>(
      "SW-EM", /*yields_distribution=*/true, [](double epsilon, size_t d) {
        SwEstimatorOptions options;
        options.epsilon = epsilon;
        options.d = d;
        options.post = SwEstimatorOptions::Post::kEm;
        return MakeSwProtocol(options);
      });
}

std::unique_ptr<DistributionMethod> MakeCfoBinningMethod(size_t bins) {
  return std::make_unique<ProtocolMethod>(
      "CFO-bin-" + std::to_string(bins), /*yields_distribution=*/true,
      [bins](double epsilon, size_t d) {
        return MakeCfoBinningProtocol(epsilon, d, bins);
      });
}

std::unique_ptr<DistributionMethod> MakeHhMethod(size_t beta) {
  return std::make_unique<ProtocolMethod>(
      "HH", /*yields_distribution=*/false,
      [beta](double epsilon, size_t d) {
        return MakeHhBatchedProtocol(epsilon, d, beta, HhPost::kConstrained);
      });
}

std::unique_ptr<DistributionMethod> MakeHaarHrrMethod() {
  return std::make_unique<ProtocolMethod>(
      "HaarHRR", /*yields_distribution=*/false, [](double epsilon, size_t d) {
        return MakeHaarHrrBatchedProtocol(epsilon, d);
      });
}

std::unique_ptr<DistributionMethod> MakeHhAdmmMethod(size_t beta) {
  return std::make_unique<ProtocolMethod>(
      "HH-ADMM", /*yields_distribution=*/true,
      [beta](double epsilon, size_t d) {
        return MakeHhBatchedProtocol(epsilon, d, beta, HhPost::kAdmm);
      });
}

std::vector<std::unique_ptr<DistributionMethod>> MakeStandardSuite() {
  std::vector<std::unique_ptr<DistributionMethod>> suite;
  suite.push_back(MakeSwEmsMethod());
  suite.push_back(MakeSwEmMethod());
  suite.push_back(MakeHhAdmmMethod());
  suite.push_back(MakeCfoBinningMethod(16));
  suite.push_back(MakeCfoBinningMethod(32));
  suite.push_back(MakeCfoBinningMethod(64));
  suite.push_back(MakeHhMethod());
  suite.push_back(MakeHaarHrrMethod());
  return suite;
}

}  // namespace numdist
