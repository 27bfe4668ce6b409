#pragma once

/**
 * @file
 * One opened trace input: a file descriptor read through read(2), as an
 * std::istream.
 *
 * A trace path is opened exactly once per run. The format sniff peeks at
 * the leading bytes without consuming them, so the reader that follows
 * sees every byte exactly once — the property a pipe, a FIFO or
 * /dev/stdin needs, since they cannot be reopened or rewound. A regular
 * file's descriptor is also what MappedBinaryEventSource maps.
 *
 * A read error (EIO, or a directory given as the trace) is fatal: it
 * must not pass for the end of a trace that then checks clean.
 *
 * rdbuf()->sgetn() returns after at most one read(2), so on a pipe it
 * can return fewer bytes than asked before the end of input; only 0
 * means the end. (std::istream::read would take such a short count for
 * the end, so block readers call sgetn, as MappedBinaryEventSource's
 * buffered window does.)
 */

#include <cstdint>
#include <istream>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

namespace aero {

class FileInput : public std::istream {
public:
    /** Open `path` read-only. Fatal when it cannot be opened. */
    explicit FileInput(const std::string& path);
    ~FileInput() override;

    FileInput(const FileInput&) = delete;
    FileInput& operator=(const FileInput&) = delete;

    int fd() const { return buf_.fd; }
    /** True for a regular file (mappable; size() is meaningful). */
    bool regular() const { return regular_; }
    uint64_t size() const { return size_; }

    /** Up to `n` unconsumed leading bytes (fewer only at end of input).
     *  Consumes nothing: the next read starts at the same byte. */
    std::string_view peek(size_t n);

private:
    class Buf : public std::streambuf {
    public:
        int fd = -1;
        std::string path;
        std::vector<char> win = std::vector<char>(64 * 1024);

        /** The first `n` unconsumed bytes, reading only what is missing
         *  (fewer at end of input); the get area keeps them. */
        std::string_view peek(size_t n);

    protected:
        int_type underflow() override;
        /** read(2), retried on EINTR. @return 0 at end of input; fatal
         *  on a read error. */
        size_t read_some(char* dst, size_t n);
        /** Buffered bytes, else one read_some: short before the end of
         *  input, 0 only at it. */
        std::streamsize xsgetn(char* s, std::streamsize n) override;
    };

    Buf buf_;
    bool regular_ = false;
    uint64_t size_ = 0;
};

} // namespace aero
