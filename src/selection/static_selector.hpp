// StaticSelector: always the same pool member.  The "single predictor" rows
// (LAST, AR, SW) of Table 2 are LAR runs with this selector substituted.
#pragma once

#include "selection/selector.hpp"

namespace larp::selection {

class StaticSelector final : public Selector {
 public:
  explicit StaticSelector(std::size_t label, std::string display_name = {});

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::size_t select(std::span<const double> window) override;
  [[nodiscard]] std::unique_ptr<Selector> clone() const override;

  [[nodiscard]] std::size_t label() const noexcept { return label_; }

 private:
  std::size_t label_;
  std::string display_name_;
};

}  // namespace larp::selection
