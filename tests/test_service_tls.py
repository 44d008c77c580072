"""TLS for the tracker service: encrypted transport end to end.

The service refuses cleartext exposure (the CLI hard-stops a tokenless,
TLS-less non-loopback bind); with ``--tls-cert``/``--tls-key`` the
asyncio listener is ssl-wrapped and :class:`ServiceClient` verifies the
server against a pinned CA (``tls_ca``), which is how self-signed
deployments authenticate the server. Certificates for these tests are
minted on the fly with the ``openssl`` CLI; everything skips when the
binary is absent.
"""

import asyncio
import shutil
import ssl
import subprocess

import pytest

from repro.cli import main
from repro.core.errors import TrackerError
from repro.service import ServiceClient, ServiceConfig, TrackerService

OPENSSL = shutil.which("openssl")

requires_openssl = pytest.mark.skipif(
    OPENSSL is None, reason="openssl binary not available"
)

COUNTING_PY = """\
total = 0
for i in range(3):
    total = total + i
print("done", total)
"""


def run(coroutine):
    return asyncio.run(coroutine)


@pytest.fixture(scope="module")
def certpair(tmp_path_factory):
    if OPENSSL is None:
        pytest.skip("openssl binary not available")
    directory = tmp_path_factory.mktemp("tls")
    cert = str(directory / "cert.pem")
    key = str(directory / "key.pem")
    subprocess.run(
        [
            OPENSSL, "req", "-x509", "-newkey", "rsa:2048",
            "-keyout", key, "-out", cert, "-days", "2", "-nodes",
            "-subj", "/CN=localhost",
        ],
        check=True,
        capture_output=True,
    )
    return cert, key


@requires_openssl
class TestTlsEndToEnd:
    def test_session_over_tls(self, certpair, write_program):
        """Full debug session through an encrypted connection: open,
        run to exit, close."""
        cert, key = certpair
        path = write_program("prog.py", COUNTING_PY)

        async def scenario():
            service = TrackerService(
                ServiceConfig(pool_size=1, port=0, tls_cert=cert, tls_key=key)
            )
            await service.start()
            try:
                host, port = service.address
                async with await ServiceClient.connect(
                    host, port, tls=True, tls_ca=cert
                ) as client:
                    tracker = await client.open_tracker(path)
                    await tracker.start()
                    while tracker.get_exit_code() is None:
                        await tracker.resume()
                    code = tracker.get_exit_code()
                    await tracker.close()
                    return code
            finally:
                await service.close()

        assert run(scenario()) == 0

    def test_plaintext_client_cannot_talk_to_tls_server(
        self, certpair, write_program
    ):
        cert, key = certpair

        async def scenario():
            service = TrackerService(
                ServiceConfig(pool_size=1, port=0, tls_cert=cert, tls_key=key)
            )
            await service.start()
            try:
                host, port = service.address
                with pytest.raises(
                    (TrackerError, ConnectionError, asyncio.TimeoutError)
                ):
                    await asyncio.wait_for(
                        ServiceClient.connect(host, port, reconnect=None),
                        timeout=5.0,
                    )
            finally:
                await service.close()

        run(scenario())

    def test_client_rejects_unpinned_self_signed_cert(
        self, certpair, write_program
    ):
        """Without ``tls_ca`` the client uses the system trust store,
        which does not contain the self-signed cert — the handshake must
        fail rather than silently trust it."""
        cert, key = certpair

        async def scenario():
            service = TrackerService(
                ServiceConfig(pool_size=1, port=0, tls_cert=cert, tls_key=key)
            )
            await service.start()
            try:
                host, port = service.address
                with pytest.raises(
                    (ssl.SSLError, TrackerError, ConnectionError)
                ):
                    await asyncio.wait_for(
                        ServiceClient.connect(
                            host, port, tls=True, reconnect=None
                        ),
                        timeout=5.0,
                    )
            finally:
                await service.close()

        run(scenario())


class TestTlsConfigValidation:
    def test_cert_without_key_fails_to_start(self, tmp_path):
        cert = tmp_path / "only.pem"
        cert.write_text("not really a cert")

        async def scenario():
            service = TrackerService(
                ServiceConfig(pool_size=1, port=0, tls_cert=str(cert))
            )
            with pytest.raises(
                TrackerError, match="needs both a certificate and a key"
            ) as refused:
                await service.start()
            assert type(refused.value) is TrackerError
            await service.close()

        run(scenario())

    def test_unreadable_cert_is_a_typed_error(self, tmp_path):
        async def scenario():
            service = TrackerService(
                ServiceConfig(
                    pool_size=1,
                    port=0,
                    tls_cert=str(tmp_path / "missing.pem"),
                    tls_key=str(tmp_path / "missing.key"),
                )
            )
            with pytest.raises(
                TrackerError, match="cannot load TLS certificate"
            ) as refused:
                await service.start()
            assert type(refused.value) is TrackerError
            await service.close()

        run(scenario())


class TestServeCliGuardrails:
    def test_tls_cert_without_key_exits_2(self, capsys):
        assert main(["serve", "--tls-cert", "/tmp/x.pem"]) == 2
        assert "--tls-key" in capsys.readouterr().err

    def test_nonloopback_bind_without_token_or_tls_refused(self, capsys):
        assert main(["serve", "--host", "0.0.0.0"]) == 2
        err = capsys.readouterr().err
        assert "refusing" in err
        assert "0.0.0.0" in err
