#include "serve/protocol.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

namespace pprophet::serve {
namespace {

/// A connected AF_UNIX socket pair that closes both ends on destruction.
struct SocketPair {
  int fds[2] = {-1, -1};
  SocketPair() {
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  }
  ~SocketPair() {
    if (fds[0] >= 0) ::close(fds[0]);
    if (fds[1] >= 0) ::close(fds[1]);
  }
  void close_write_end() {
    ::close(fds[0]);
    fds[0] = -1;
  }
};

TEST(Protocol, FrameRoundTrip) {
  SocketPair sp;
  const std::string msg = R"({"op":"ping"})";
  write_frame(sp.fds[0], msg);
  std::string got;
  ASSERT_TRUE(read_frame(sp.fds[1], got));
  EXPECT_EQ(got, msg);
}

TEST(Protocol, EmptyAndBinaryPayloads) {
  SocketPair sp;
  write_frame(sp.fds[0], "");
  std::string binary("\x00\xFF\x7F payload", 11);
  write_frame(sp.fds[0], binary);
  std::string got;
  ASSERT_TRUE(read_frame(sp.fds[1], got));
  EXPECT_TRUE(got.empty());
  ASSERT_TRUE(read_frame(sp.fds[1], got));
  EXPECT_EQ(got, binary);
}

TEST(Protocol, CleanEofReturnsFalse) {
  SocketPair sp;
  sp.close_write_end();
  std::string got;
  EXPECT_FALSE(read_frame(sp.fds[1], got));
}

TEST(Protocol, TruncatedHeaderThrows) {
  SocketPair sp;
  const char partial[2] = {1, 0};
  ASSERT_EQ(::send(sp.fds[0], partial, 2, 0), 2);
  sp.close_write_end();
  std::string got;
  EXPECT_THROW(read_frame(sp.fds[1], got), ProtocolError);
}

TEST(Protocol, TruncatedPayloadThrows) {
  SocketPair sp;
  // Header announces 100 bytes, only 3 arrive before EOF.
  const unsigned char header[4] = {100, 0, 0, 0};
  ASSERT_EQ(::send(sp.fds[0], header, 4, 0), 4);
  ASSERT_EQ(::send(sp.fds[0], "abc", 3, 0), 3);
  sp.close_write_end();
  std::string got;
  EXPECT_THROW(read_frame(sp.fds[1], got), ProtocolError);
}

TEST(Protocol, OversizedFrameRejected) {
  SocketPair sp;
  const unsigned char header[4] = {0xFF, 0xFF, 0xFF, 0xFF};  // ~4 GiB
  ASSERT_EQ(::send(sp.fds[0], header, 4, 0), 4);
  std::string got;
  EXPECT_THROW(read_frame(sp.fds[1], got), ProtocolError);
}

// An SO_RCVTIMEO expiry mid-frame must surface as the distinct
// ProtocolTimeout (so serve can count and log it as a stall), not as a
// generic EAGAIN ProtocolError.
TEST(Protocol, ReceiveTimeoutMidFrameThrowsProtocolTimeout) {
  SocketPair sp;
  timeval tv{};
  tv.tv_usec = 50000;  // 50 ms
  ASSERT_EQ(::setsockopt(sp.fds[1], SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv),
            0);
  // Header promises 64 bytes; only 3 ever arrive and the peer stalls
  // (without closing — EOF would be the truncation error instead).
  const unsigned char header[4] = {64, 0, 0, 0};
  ASSERT_EQ(::send(sp.fds[0], header, 4, 0), 4);
  ASSERT_EQ(::send(sp.fds[0], "abc", 3, 0), 3);
  std::string got;
  EXPECT_THROW(read_frame(sp.fds[1], got), ProtocolTimeout);
}

TEST(Protocol, ReceiveTimeoutInsideHeaderThrowsProtocolTimeout) {
  SocketPair sp;
  timeval tv{};
  tv.tv_usec = 50000;
  ASSERT_EQ(::setsockopt(sp.fds[1], SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv),
            0);
  const char partial[2] = {1, 0};  // half the length prefix, then silence
  ASSERT_EQ(::send(sp.fds[0], partial, 2, 0), 2);
  std::string got;
  EXPECT_THROW(read_frame(sp.fds[1], got), ProtocolTimeout);
}

// The send side mirrors it: a peer that stops draining wedges write_frame
// until SO_SNDTIMEO fires, which must also be the distinct timeout type.
TEST(Protocol, SendTimeoutThrowsProtocolTimeout) {
  SocketPair sp;
  timeval tv{};
  tv.tv_usec = 50000;
  ASSERT_EQ(::setsockopt(sp.fds[0], SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv),
            0);
  // Nobody reads fds[1]; a payload larger than both socket buffers must
  // block mid-frame and then time out.
  const std::string big(8u << 20, 'x');
  EXPECT_THROW(write_frame(sp.fds[0], big), ProtocolTimeout);
}

TEST(Protocol, LargeFrameStreamsThroughSocketBuffers) {
  // Larger than any default socket buffer: forces the writer thread and
  // reader to interleave, exercising the partial-write loop.
  const std::string big(4u << 20, 'x');
  SocketPair sp;
  std::thread writer([&] { write_frame(sp.fds[0], big); });
  std::string got;
  ASSERT_TRUE(read_frame(sp.fds[1], got));
  writer.join();
  EXPECT_EQ(got, big);
}

TEST(Protocol, Base64RoundTrip) {
  for (const std::string& s :
       {std::string(), std::string("f"), std::string("fo"), std::string("foo"),
        std::string("foob"), std::string("\x00\x01\xFE\xFF", 4)}) {
    EXPECT_EQ(base64_decode(base64_encode(s)), s) << "len=" << s.size();
  }
  EXPECT_EQ(base64_encode("foobar"), "Zm9vYmFy");
  EXPECT_EQ(base64_encode("foob"), "Zm9vYg==");
}

TEST(Protocol, Base64RejectsBadInput) {
  EXPECT_THROW(base64_decode("abc"), ProtocolError);     // length % 4
  EXPECT_THROW(base64_decode("ab!d"), ProtocolError);    // alphabet
  EXPECT_THROW(base64_decode("=abc"), ProtocolError);    // padding position
  EXPECT_THROW(base64_decode("a==="), ProtocolError);    // too much padding
  EXPECT_THROW(base64_decode("ab=c"), ProtocolError);    // data after padding
  EXPECT_THROW(base64_decode("ab==cdef"), ProtocolError);  // mid-stream pad
}

TEST(Protocol, WireNamesRoundTrip) {
  for (const auto m :
       {core::Method::FastForward, core::Method::Synthesizer,
        core::Method::Suitability, core::Method::GroundTruth}) {
    core::Method back{};
    ASSERT_TRUE(parse_method(wire_name(m), back));
    EXPECT_EQ(back, m);
  }
  for (const auto p : {core::Paradigm::OpenMP, core::Paradigm::CilkPlus}) {
    core::Paradigm back{};
    ASSERT_TRUE(parse_paradigm(wire_name(p), back));
    EXPECT_EQ(back, p);
  }
  for (const auto s :
       {runtime::OmpSchedule::StaticBlock, runtime::OmpSchedule::StaticCyclic,
        runtime::OmpSchedule::Dynamic, runtime::OmpSchedule::Guided}) {
    runtime::OmpSchedule back{};
    ASSERT_TRUE(parse_schedule(wire_name(s), back));
    EXPECT_EQ(back, s);
  }
  core::Method m{};
  EXPECT_FALSE(parse_method("bogus", m));
}

TEST(Protocol, ResponseHelpers) {
  const JsonValue ok = ok_response("ping");
  EXPECT_TRUE(ok.at("ok").as_bool());
  EXPECT_EQ(ok.at("op").as_string(), "ping");
  const JsonValue err = error_response("sweep", kErrOverloaded, "queue full");
  EXPECT_FALSE(err.at("ok").as_bool());
  EXPECT_EQ(err.at("error").as_string(), "overloaded");
  EXPECT_EQ(err.at("message").as_string(), "queue full");
}

}  // namespace
}  // namespace pprophet::serve
