#include "trace/file_input.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "support/assert.hpp"

namespace aero {

FileInput::FileInput(const std::string& path) : std::istream(nullptr)
{
    buf_.path = path;
    buf_.fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (buf_.fd < 0)
        fatal("cannot open file for reading: " + path);
    struct stat st;
    if (::fstat(buf_.fd, &st) == 0 && S_ISREG(st.st_mode)) {
        regular_ = true;
        size_ = static_cast<uint64_t>(st.st_size);
    }
    rdbuf(&buf_); // clears the badbit a null buffer set
    // Let a read error's FatalError through the istream API instead of
    // ending the input quietly.
    exceptions(std::ios::badbit);
}

FileInput::~FileInput()
{
    if (buf_.fd >= 0)
        ::close(buf_.fd);
}

std::string_view
FileInput::peek(size_t n)
{
    return buf_.peek(n);
}

size_t
FileInput::Buf::read_some(char* dst, size_t n)
{
    for (;;) {
        const ssize_t r = ::read(fd, dst, n);
        if (r >= 0)
            return static_cast<size_t>(r);
        if (errno != EINTR)
            fatal("read failed: " + path + ": " + std::strerror(errno));
    }
}

std::string_view
FileInput::Buf::peek(size_t n)
{
    AERO_ASSERT(n <= win.size(), "peek wider than the read window");
    size_t have = static_cast<size_t>(egptr() - gptr());
    if (have < n) {
        char* base = win.data();
        if (have > 0 && gptr() != base)
            std::memmove(base, gptr(), have);
        while (have < n) {
            const size_t got = read_some(base + have, n - have);
            if (got == 0)
                break;
            have += got;
        }
        setg(base, base, base + have);
    }
    return {gptr(), std::min(n, have)};
}

FileInput::Buf::int_type
FileInput::Buf::underflow()
{
    if (gptr() == egptr()) {
        const size_t got = read_some(win.data(), win.size());
        if (got == 0)
            return traits_type::eof();
        setg(win.data(), win.data(), win.data() + got);
    }
    return traits_type::to_int_type(*gptr());
}

std::streamsize
FileInput::Buf::xsgetn(char* s, std::streamsize n)
{
    // Hand over what a peek or underflow left buffered; only when nothing
    // is, read once straight into the caller's buffer (the binary window
    // reads 256 KiB at a time; a detour through `win` would copy every
    // byte twice). One read(2) at most: on a pipe it returns what the
    // writer has sent so far instead of waiting for n bytes.
    const std::streamsize buffered = egptr() - gptr();
    if (buffered > 0) {
        const std::streamsize done = std::min(n, buffered);
        std::memcpy(s, gptr(), static_cast<size_t>(done));
        gbump(static_cast<int>(done));
        return done;
    }
    return static_cast<std::streamsize>(
        read_some(s, static_cast<size_t>(n)));
}

} // namespace aero
