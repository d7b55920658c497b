"""Wi-Fi RSSI fingerprint proximity detection.

Classifies pairs of Wi-Fi scans as recorded Close (within arm's reach,
<= 2.25 m) or Far (3.25-20 m) from each other, using a large catalog of
fingerprint-similarity features and an attribute-bagged tree ensemble.
"""

__version__ = "0.1.0"
