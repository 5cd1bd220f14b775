"""Reverse-DNS name synthesis for simulated relay hosts.

Section 5.3 classifies relays as residential by their rDNS names
(Schulman et al.'s technique, extended to Europe). To exercise that
classifier, the live-Tor testbed gives each host a name drawn from
realistic provider templates: U.S. and European ISP patterns for
residential hosts, hosting-provider patterns (the exact domains the
paper lists) for data-center hosts, and institutional names for
university hosts. A configurable fraction of hosts get no rDNS at all,
matching the 1150-of-6634 unnamed relays the paper reports.
"""

from __future__ import annotations

import numpy as np

from repro.util.rng import draw_item

#: U.S. residential templates. ``{o1}..{o4}`` are address octets,
#: ``{n}`` a random small integer, ``{state}`` a U.S. state code.
US_RESIDENTIAL_TEMPLATES: tuple[str, ...] = (
    "c-{o1}-{o2}-{o3}-{o4}.hsd1.{state}.comcast.net",
    "pool-{o1}-{o2}-{o3}-{o4}.nycmny.fios.verizon.net",
    "{o4}.sub-{o1}-{o2}-{o3}.myvzw.com",
    "cpe-{o1}-{o2}-{o3}-{o4}.socal.res.rr.com",
    "ip{o1}-{o2}-{o3}-{o4}.ri.ri.cox.net",
    "{o1}-{o2}-{o3}-{o4}.lightspeed.sntcca.sbcglobal.net",
    "d{o1}-{o2}-{o3}-{o4}.try.wideopenwest.com",
    "{o1}.{o2}.{o3}.{o4}.dyn.centurylink.net",
)

#: European residential templates.
EU_RESIDENTIAL_TEMPLATES: tuple[str, ...] = (
    "p{o1}{o2}{o3}{o4}.dip0.t-ipconnect.de",
    "x{o1}d{o2}{o3}{o4}.dyn.telefonica.de",
    "{o1}-{o2}-{o3}-{o4}.abo.bbox.fr",
    "alyon-{n}-{o3}-{o4}.w{o1}-{o2}.abo.wanadoo.fr",
    "cpc{n}-seve{n}-2-0-cust{o4}.13-3.cable.virginm.net",
    "host{o1}-{o2}-{o3}-{o4}.range86-{n}.btcentralplus.com",
    "{o4}.{o3}.{o2}.{o1}.dynamic.wline.res.cust.swisscom.ch",
    "ip-{o1}-{o2}-{o3}-{o4}.dyn.luna.nl",
    "h-{o1}-{o2}-{o3}-{o4}.na.cust.bahnhof.se",
    "dynamic-adsl-{o1}-{o2}-{o3}-{o4}.clienti.tiscali.it",
)

#: Hosting/data-center templates; domains match the paper's list.
HOSTING_TEMPLATES: tuple[str, ...] = (
    "li{n}-{o4}.members.linode.com",
    "ec2-{o1}-{o2}-{o3}-{o4}.compute-1.amazonaws.com",
    "ns{n}.ovh.net",
    "{n}.ip-{o1}-{o2}-{o3}.eu.ovh.com",
    "server{n}.cloudatcost.com",
    "static.{o4}.{o3}.{o2}.{o1}.clients.your-server.de",
    "hosted-by.leaseweb.com",
    "vps{n}.stratus-cloud.example.net",
)

#: University/institutional templates (neither residential nor hosting).
UNIVERSITY_TEMPLATES: tuple[str, ...] = (
    "planetlab{n}.cs.example-u.edu",
    "node{n}.research.example.ac.uk",
    "gw.cs.example-tech.edu",
    "relay{n}.net.example-institute.org",
)

_US_STATES = ("ca", "md", "ma", "ny", "tx", "wa", "il", "ga", "fl", "co", "or", "pa")


def synthesize_rdns(
    rng: np.random.Generator,
    address: str,
    host_type: str,
    unnamed_fraction: float = 0.17,
) -> str | None:
    """Generate a plausible rDNS name for a host, or ``None``.

    ``unnamed_fraction`` of hosts get no name regardless of type,
    mirroring the share of live relays with no PTR record.
    """
    if rng.random() < unnamed_fraction:
        return None
    o1, o2, o3, o4 = address.split(".")
    if host_type == "residential":
        templates = (
            US_RESIDENTIAL_TEMPLATES
            if rng.random() < 0.45
            else EU_RESIDENTIAL_TEMPLATES
        )
    elif host_type == "hosting":
        templates = HOSTING_TEMPLATES
    else:
        templates = UNIVERSITY_TEMPLATES
    template = draw_item(rng, templates)
    return template.format(
        o1=o1,
        o2=o2,
        o3=o3,
        o4=o4,
        n=int(rng.integers(1, 999)),
        state=draw_item(rng, _US_STATES),
    )
