#include <gtest/gtest.h>

#include "model/network.hpp"

namespace dds::model {
namespace {

class TwoSidedTest : public ::testing::Test {
 protected:
  MachineConfig m_ = test_machine();
};

TEST_F(TwoSidedTest, SelfFetchBypassesBroker) {
  NetworkModel net(m_, 8);
  EXPECT_DOUBLE_EQ(net.two_sided_fetch_time(3, 3, 1000, 1.0, /*poll=*/1.0),
                   net.local_get_time(1000, 1.0));
}

TEST_F(TwoSidedTest, PollDelayOnCriticalPath) {
  NetworkModel net(m_, 8);
  const double fast = net.two_sided_fetch_time(0, 4, 1000, 0.0, 100e-6);
  NetworkModel net2(m_, 8);
  const double slow = net2.two_sided_fetch_time(0, 4, 1000, 0.0, 10e-3);
  EXPECT_NEAR(slow - fast, 10e-3 - 100e-6, 1e-6);
}

TEST_F(TwoSidedTest, PaysSoftwareOverheadPerMessage) {
  NetworkModel net(m_, 8);
  const double t = net.two_sided_fetch_time(0, 4, 0, 0.0, 0.0);
  // Three overhead charges (request send, broker service, response recv)
  // plus two wire latencies.
  EXPECT_GE(t, 3 * m_.net.two_sided_overhead_s);
}

TEST_F(TwoSidedTest, NegativePollRejected) {
  NetworkModel net(m_, 4);
  EXPECT_THROW(net.two_sided_fetch_time(0, 1, 10, 0.0, -1e-3),
               InternalError);
}

}  // namespace
}  // namespace dds::model
